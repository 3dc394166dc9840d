#include "dphist/algorithms/registry.h"

#include <chrono>
#include <memory>
#include <optional>
#include <utility>

#include "dphist/algorithms/ahp.h"
#include "dphist/algorithms/boost_tree.h"
#include "dphist/algorithms/efpa.h"
#include "dphist/algorithms/grouping_smoothing.h"
#include "dphist/algorithms/identity_geometric.h"
#include "dphist/algorithms/identity_laplace.h"
#include "dphist/algorithms/mwem.h"
#include "dphist/algorithms/noise_first.h"
#include "dphist/algorithms/p_hp.h"
#include "dphist/algorithms/privelet.h"
#include "dphist/algorithms/structure_first.h"
#include "dphist/common/env.h"
#include "dphist/obs/obs.h"
#include "dphist/sparse/sparse_pure.h"
#include "dphist/sparse/unknown_domain.h"

namespace dphist {

namespace {

/// Decorator recording per-publisher metrics; see PublisherRegistry docs.
/// All metric handles are resolved once at construction, so the enabled
/// Publish path touches no registry locks, and the disabled path is a
/// single branch plus the virtual dispatch.
class InstrumentedPublisher : public HistogramPublisher {
 public:
  explicit InstrumentedPublisher(std::unique_ptr<HistogramPublisher> inner)
      : inner_(std::move(inner)),
        name_(inner_->name()),
        runs_(obs::Registry::Global().GetCounter("publisher/" + name_ +
                                                 "/runs")),
        laplace_draws_(obs::Registry::Global().GetCounter(
            "publisher/" + name_ + "/laplace_draws")),
        geometric_draws_(obs::Registry::Global().GetCounter(
            "publisher/" + name_ + "/geometric_draws")),
        wall_ms_(
            obs::Registry::Global().GetDistribution("publisher/" + name_)),
        epsilon_(obs::Registry::Global().GetDistribution("publisher/" +
                                                         name_ + "/epsilon")) {
  }

  std::string name() const override { return name_; }

  // The data-only stage draws nothing and counts as no run, so it passes
  // through unmeasured; its own work records under its own names (for
  // StructureFirst, `interval_cost/build`).
  Result<std::shared_ptr<const PreparedTruth>> Prepare(
      const Histogram& truth) const override {
    return inner_->Prepare(truth);
  }

  Result<Histogram> PublishPrepared(const Histogram& histogram,
                                    const PreparedTruth* prepared,
                                    double epsilon, Rng& rng) const override {
    if (!obs::Enabled()) {
      return inner_->PublishPrepared(histogram, prepared, epsilon, rng);
    }
    runs_.Increment();
    epsilon_.Record(epsilon);
    // Draws happen on this thread (samplers are never parallelized), so a
    // thread-local attribution scope routes them to this publisher even
    // when RunCell publishes several cells concurrently.
    obs::DrawAttributionScope attribution(&laplace_draws_, &geometric_draws_);
    const auto start = std::chrono::steady_clock::now();
    auto released = inner_->PublishPrepared(histogram, prepared, epsilon, rng);
    wall_ms_.Record(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count());
    return released;
  }

 private:
  std::unique_ptr<HistogramPublisher> inner_;
  std::string name_;
  obs::Counter& runs_;
  obs::Counter& laplace_draws_;
  obs::Counter& geometric_draws_;
  obs::Distribution& wall_ms_;
  obs::Distribution& epsilon_;
};

/// Sparse counterpart of InstrumentedPublisher. Sparse mechanisms report
/// release-shape observability (released / suppressed / spurious key
/// counts, the threshold) through SparsePublishStats, which only exists
/// once a run finishes — so the decorator, not the mechanism, owns the
/// counters; the mechanism stays obs-free.
class InstrumentedSparsePublisher : public sparse::SparseHistogramPublisher {
 public:
  explicit InstrumentedSparsePublisher(
      std::unique_ptr<sparse::SparseHistogramPublisher> inner)
      : inner_(std::move(inner)),
        name_(inner_->name()),
        runs_(obs::Registry::Global().GetCounter("publisher/" + name_ +
                                                 "/runs")),
        released_keys_(obs::Registry::Global().GetCounter(
            "publisher/" + name_ + "/released_keys")),
        suppressed_keys_(obs::Registry::Global().GetCounter(
            "publisher/" + name_ + "/suppressed_keys")),
        spurious_keys_(obs::Registry::Global().GetCounter(
            "publisher/" + name_ + "/spurious_keys")),
        laplace_draws_(obs::Registry::Global().GetCounter(
            "publisher/" + name_ + "/laplace_draws")),
        geometric_draws_(obs::Registry::Global().GetCounter(
            "publisher/" + name_ + "/geometric_draws")),
        wall_ms_(
            obs::Registry::Global().GetDistribution("publisher/" + name_)),
        epsilon_(obs::Registry::Global().GetDistribution("publisher/" + name_ +
                                                         "/epsilon")),
        threshold_(obs::Registry::Global().GetDistribution(
            "publisher/" + name_ + "/threshold")) {}

  std::string name() const override { return name_; }

  Result<sparse::SparseHistogram> Publish(
      const sparse::SparseHistogram& truth, double epsilon, Rng& rng,
      sparse::SparsePublishStats* stats) const override {
    if (!obs::Enabled()) {
      return inner_->Publish(truth, epsilon, rng, stats);
    }
    runs_.Increment();
    epsilon_.Record(epsilon);
    obs::DrawAttributionScope attribution(&laplace_draws_, &geometric_draws_);
    sparse::SparsePublishStats local;
    const auto start = std::chrono::steady_clock::now();
    auto released = inner_->Publish(truth, epsilon, rng, &local);
    wall_ms_.Record(std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count());
    if (released.ok()) {
      released_keys_.Add(local.released_keys);
      suppressed_keys_.Add(local.suppressed_keys);
      spurious_keys_.Add(local.spurious_keys);
      threshold_.Record(local.threshold);
    }
    if (stats != nullptr) {
      *stats = local;
    }
    return released;
  }
  using sparse::SparseHistogramPublisher::Publish;

 private:
  std::unique_ptr<sparse::SparseHistogramPublisher> inner_;
  std::string name_;
  obs::Counter& runs_;
  obs::Counter& released_keys_;
  obs::Counter& suppressed_keys_;
  obs::Counter& spurious_keys_;
  obs::Counter& laplace_draws_;
  obs::Counter& geometric_draws_;
  obs::Distribution& wall_ms_;
  obs::Distribution& epsilon_;
  obs::Distribution& threshold_;
};

}  // namespace

std::vector<std::string> PublisherRegistry::PaperNames() {
  return {"dwork", "boost", "privelet", "noise_first", "structure_first"};
}

std::vector<std::string> PublisherRegistry::BuiltinNames() {
  std::vector<std::string> names = PaperNames();
  names.push_back("geometric");
  names.push_back("efpa");
  names.push_back("mwem");
  names.push_back("p_hp");
  names.push_back("ahp");
  names.push_back("gs");
  return names;
}

namespace {

std::unique_ptr<HistogramPublisher> MakeRaw(std::string_view name) {
  if (name == "dwork") {
    return std::unique_ptr<HistogramPublisher>(new IdentityLaplace());
  }
  if (name == "boost") {
    return std::unique_ptr<HistogramPublisher>(new BoostTree());
  }
  if (name == "privelet") {
    return std::unique_ptr<HistogramPublisher>(new Privelet());
  }
  if (name == "noise_first") {
    return std::unique_ptr<HistogramPublisher>(new NoiseFirst());
  }
  if (name == "structure_first") {
    return std::unique_ptr<HistogramPublisher>(new StructureFirst());
  }
  if (name == "geometric") {
    return std::unique_ptr<HistogramPublisher>(new IdentityGeometric());
  }
  if (name == "efpa") {
    return std::unique_ptr<HistogramPublisher>(new Efpa());
  }
  if (name == "mwem") {
    return std::unique_ptr<HistogramPublisher>(new Mwem());
  }
  if (name == "p_hp") {
    return std::unique_ptr<HistogramPublisher>(new PHPartition());
  }
  if (name == "ahp") {
    return std::unique_ptr<HistogramPublisher>(new Ahp());
  }
  if (name == "gs") {
    return std::unique_ptr<HistogramPublisher>(new GroupingSmoothing());
  }
  return nullptr;
}

}  // namespace

Result<std::unique_ptr<HistogramPublisher>> PublisherRegistry::Make(
    std::string_view name) {
  auto publisher = MakeRaw(name);
  if (publisher == nullptr) {
    return Status::NotFound("unknown publisher: " + std::string(name));
  }
  return Instrument(std::move(publisher));
}

std::unique_ptr<HistogramPublisher> PublisherRegistry::Instrument(
    std::unique_ptr<HistogramPublisher> publisher) {
  if (publisher == nullptr) {
    return publisher;
  }
  return std::unique_ptr<HistogramPublisher>(
      new InstrumentedPublisher(std::move(publisher)));
}

namespace {

std::vector<std::unique_ptr<HistogramPublisher>> MakeSuite(
    const std::vector<std::string>& names) {
  std::vector<std::unique_ptr<HistogramPublisher>> suite;
  for (const std::string& name : names) {
    auto made = PublisherRegistry::Make(name);
    if (made.ok()) {
      suite.push_back(std::move(made).value());
    }
  }
  return suite;
}

}  // namespace

std::vector<std::unique_ptr<HistogramPublisher>>
PublisherRegistry::MakePaperSuite() {
  return MakeSuite(PaperNames());
}

std::vector<std::unique_ptr<HistogramPublisher>> PublisherRegistry::MakeAll() {
  return MakeSuite(BuiltinNames());
}

std::vector<std::string> PublisherRegistry::SparseNames() {
  return {"sparse_pure", "unknown_domain"};
}

bool PublisherRegistry::IsSparse(std::string_view name) {
  return name == "sparse_pure" || name == "unknown_domain";
}

Result<std::unique_ptr<sparse::SparseHistogramPublisher>>
PublisherRegistry::MakeSparse(std::string_view name) {
  std::unique_ptr<sparse::SparseHistogramPublisher> publisher;
  if (name == "sparse_pure") {
    publisher = std::make_unique<sparse::SparsePurePublisher>();
  } else if (name == "unknown_domain") {
    publisher = std::make_unique<sparse::UnknownDomainPublisher>();
  } else {
    return Status::NotFound("unknown sparse publisher: " + std::string(name));
  }
  return InstrumentSparse(std::move(publisher));
}

std::unique_ptr<sparse::SparseHistogramPublisher>
PublisherRegistry::InstrumentSparse(
    std::unique_ptr<sparse::SparseHistogramPublisher> publisher) {
  if (publisher == nullptr) {
    return publisher;
  }
  return std::unique_ptr<sparse::SparseHistogramPublisher>(
      new InstrumentedSparsePublisher(std::move(publisher)));
}

std::string PublisherRegistry::NameFromEnv(std::string_view fallback) {
  const std::optional<std::string> value = GetEnv("DPHIST_PUBLISHER");
  if (value.has_value() && !value->empty()) {
    return *value;
  }
  return std::string(fallback);
}

}  // namespace dphist
