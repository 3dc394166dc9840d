#ifndef DPHIST_COMMON_MAPPED_DOUBLES_H_
#define DPHIST_COMMON_MAPPED_DOUBLES_H_

#include <cstddef>

namespace dphist {

/// \brief A fixed-size, zero-filled array of doubles in pages of its own:
/// mapped when constructed and unmapped when destroyed, so its memory goes
/// back to the OS with the object instead of staying in a malloc arena.
///
/// For large tables that outlive the call that built them, such as the
/// absolute-cost triangle a prepared StructureFirst keeps per dataset
/// (4.2 MB at m = 1024): glibc serves such an allocation from an arena once
/// its dynamic mmap threshold has risen past earlier tables, and an arena
/// keeps freed memory resident. Move-only.
class MappedDoubles {
 public:
  MappedDoubles() = default;
  /// Maps `size` zeroed doubles; throws std::bad_alloc when the mapping
  /// fails.
  explicit MappedDoubles(std::size_t size);
  ~MappedDoubles();

  MappedDoubles(MappedDoubles&& other) noexcept;
  MappedDoubles& operator=(MappedDoubles&& other) noexcept;
  MappedDoubles(const MappedDoubles&) = delete;
  MappedDoubles& operator=(const MappedDoubles&) = delete;

  double* data() { return data_; }
  const double* data() const { return data_; }
  std::size_t size() const { return size_; }
  double& operator[](std::size_t i) { return data_[i]; }
  const double& operator[](std::size_t i) const { return data_[i]; }

 private:
  void Unmap();

  double* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace dphist

#endif  // DPHIST_COMMON_MAPPED_DOUBLES_H_
