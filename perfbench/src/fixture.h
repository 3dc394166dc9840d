// One complete serving stack, configured like `dphist_tool serve --listen`:
// a journaled ReleaseServer over a fresh directory inside the benchmark's
// work directory, the two benchmark namespaces, the sealed hot set, and a
// NetServer with default options on the global pool.

#ifndef PERFBENCH_FIXTURE_H_
#define PERFBENCH_FIXTURE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common.h"
#include "dphist/common/result.h"
#include "dphist/net/server.h"
#include "dphist/serve/journal.h"
#include "dphist/serve/release_server.h"

namespace perfbench {

class Fixture {
 public:
  /// Builds the stack and times it: journal directory and open, dataset
  /// registration, hot-set publishes, server start, and a warm pass that
  /// encodes every hot release's frames once.
  static dphist::Result<std::unique_ptr<Fixture>> Create(
      const Inputs& inputs, const std::string& work_dir);

  /// Stops the server and removes the journal directory.
  ~Fixture();

  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  dphist::serve::ReleaseServer& server() { return *server_; }
  std::uint16_t port() const { return net_->port(); }
  /// The fresh journal directory (removed by the destructor).
  const std::string& dir() const { return dir_; }
  double setup_seconds() const { return setup_seconds_; }

 private:
  Fixture() = default;

  std::string dir_;
  std::unique_ptr<dphist::serve::Journal> journal_;
  std::unique_ptr<dphist::serve::ReleaseServer> server_;
  std::unique_ptr<dphist::net::NetServer> net_;
  double setup_seconds_ = 0.0;
};

}  // namespace perfbench

#endif  // PERFBENCH_FIXTURE_H_
