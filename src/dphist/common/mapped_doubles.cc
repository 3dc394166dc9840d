#include "dphist/common/mapped_doubles.h"

#include <sys/mman.h>

#include <new>
#include <utility>

namespace dphist {

MappedDoubles::MappedDoubles(std::size_t size) {
  if (size == 0) {
    return;
  }
  // Anonymous pages arrive zero-filled, and untouched ones cost nothing.
  void* pages = mmap(nullptr, size * sizeof(double), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) {
    throw std::bad_alloc();
  }
  data_ = static_cast<double*>(pages);
  size_ = size;
}

MappedDoubles::~MappedDoubles() { Unmap(); }

MappedDoubles::MappedDoubles(MappedDoubles&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)) {}

MappedDoubles& MappedDoubles::operator=(MappedDoubles&& other) noexcept {
  if (this != &other) {
    Unmap();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
  }
  return *this;
}

void MappedDoubles::Unmap() {
  if (data_ != nullptr) {
    munmap(data_, size_ * sizeof(double));
    data_ = nullptr;
    size_ = 0;
  }
}

}  // namespace dphist
