#include "fixture.h"

#include <stdlib.h>

#include <filesystem>
#include <utility>
#include <vector>

#include "dphist/net/client.h"

namespace perfbench {
namespace {

// Lifetime budget of both namespaces: large enough that no run is ever
// refused, so every cold request publishes.
constexpr double kTotalEpsilon = 1.0e9;

}  // namespace

dphist::Result<std::unique_ptr<Fixture>> Fixture::Create(
    const Inputs& inputs, const std::string& work_dir) {
  const std::int64_t start = NowNs();
  std::unique_ptr<Fixture> fixture(new Fixture());

  std::string pattern = work_dir + "/journal-XXXXXX";
  if (mkdtemp(pattern.data()) == nullptr) {
    return dphist::Status::Internal("mkdtemp failed under " + work_dir);
  }
  fixture->dir_ = pattern;
  auto journal =
      dphist::serve::Journal::Open(fixture->dir_ + "/events.jnl");
  if (!journal.ok()) {
    return journal.status();
  }
  fixture->journal_ = std::move(journal).value();

  dphist::serve::ReleaseServerOptions options;
  options.journal = fixture->journal_.get();
  fixture->server_ = std::make_unique<dphist::serve::ReleaseServer>(options);
  DPHIST_RETURN_IF_ERROR(fixture->server_->AddDataset(
      DenseNamespace(), inputs.dense_truth, kTotalEpsilon));
  DPHIST_RETURN_IF_ERROR(fixture->server_->AddSparseDataset(
      SparseNamespace(), inputs.sparse_truth, kTotalEpsilon));

  // Hot-set publishes, one pool task per release as the dispatched path
  // runs them.
  std::vector<dphist::Status> published(inputs.hot_keys.size());
  RunOnPool(inputs.hot_keys.size(), [&](std::size_t i) {
    const HotKey& key = inputs.hot_keys[i];
    published[i] = fixture->server_->GetRelease(key.ns, key.request).status();
  });
  for (const dphist::Status& status : published) {
    DPHIST_RETURN_IF_ERROR(status);
  }

  fixture->net_ = std::make_unique<dphist::net::NetServer>(
      fixture->server_.get(), dphist::net::NetServerOptions{});
  DPHIST_RETURN_IF_ERROR(fixture->net_->Start());

  // Warm pass: the first /v1/release of each hot key in each codec
  // encodes and memoizes its frame.
  dphist::net::NetClient client;
  DPHIST_RETURN_IF_ERROR(client.Connect("127.0.0.1", fixture->port()));
  for (const HotKey& key : inputs.hot_keys) {
    dphist::net::WireQueryRequest query;
    query.tenant = key.ns.tenant;
    query.dataset = key.ns.dataset;
    query.request = key.request;
    for (const bool binary : {true, false}) {
      const dphist::Status warmed =
          key.ns == SparseNamespace()
              ? client.SparseRelease(query, binary).status()
              : client.Release(query, binary).status();
      DPHIST_RETURN_IF_ERROR(warmed);
    }
  }
  fixture->setup_seconds_ = static_cast<double>(NowNs() - start) * 1e-9;
  return fixture;
}

Fixture::~Fixture() {
  if (net_ != nullptr) {
    net_->Stop();
  }
  net_.reset();
  server_.reset();
  journal_.reset();
  if (!dir_.empty()) {
    std::error_code ignored;
    std::filesystem::remove_all(dir_, ignored);
  }
}

}  // namespace perfbench
