// dphist_tool — command-line front end for the library, so the algorithms
// can be used on real CSV histograms without writing C++.
//
// Subcommands:
//   generate <age|nettrace|searchlogs|social> <out.csv> [--n N] [--seed S]
//   publish  <algorithm> <epsilon> <in.csv> <out.csv> [--seed S]
//   evaluate <truth.csv> <released.csv> [--queries Q] [--seed S]
//   serve    <algorithm> <epsilon> <in.csv> [--budget E] [--batches B]
//            [--queries Q] [--seed S] [--journal DIR] [--shards N]
//            [--tenant NAME] [--listen PORT] [--max-inflight N]
//   query    [--host H] [--port P] [--codec binary|json] [--publisher A]
//            [--epsilon E] [--seed S] [--queries Q] [--workload-seed S]
//            [--tenant NAME] [--out FILE]
//   list
//
// Exit code 0 on success; errors go to stderr.

#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dphist/algorithms/identity_geometric.h"
#include "dphist/algorithms/identity_laplace.h"
#include "dphist/algorithms/noise_first.h"
#include "dphist/algorithms/registry.h"
#include "dphist/algorithms/structure_first.h"
#include "dphist/data/csv.h"
#include "dphist/data/generators.h"
#include "dphist/metrics/metrics.h"
#include "dphist/net/client.h"
#include "dphist/net/server.h"
#include "dphist/net/wire_codec.h"
#include "dphist/obs/export.h"
#include "dphist/query/workload.h"
#include "dphist/random/rng.h"
#include "dphist/serve/journal.h"
#include "dphist/serve/release_server.h"
#include "dphist/sparse/sparse_csv.h"
#include "dphist/sparse/sparse_pure.h"
#include "dphist/sparse/unknown_domain.h"

namespace {

// serve --listen runs until one of these arrives.
volatile std::sig_atomic_t g_stop_requested = 0;
void HandleStopSignal(int) { g_stop_requested = 1; }

struct Flags {
  std::size_t n = 1024;
  std::uint64_t seed = 42;
  std::size_t queries = 500;
  double budget = 1.0;
  std::size_t batches = 8;
  // Serve durability/tenancy knobs. An empty journal dir falls back to
  // DPHIST_JOURNAL_DIR; still empty means in-memory serving. Shards 0
  // defers to DPHIST_SERVE_SHARDS, then the built-in default.
  std::string journal_dir;
  std::size_t shards = 0;
  std::string tenant = "default";
  // Network front-end knobs (serve --listen, and the query subcommand).
  bool listen_set = false;
  std::uint16_t listen_port = 0;  // 0 = ephemeral; actual port is printed
  std::size_t max_inflight = 64;
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  bool binary_codec = true;
  std::string publisher = "noise_first";
  bool publisher_set = false;
  double epsilon = 0.1;
  // Sparse knobs: a nonzero --sparse-domain switches publish/serve to the
  // sparse representation (`key,count` CSVs over a 64-bit domain).
  std::uint64_t sparse_domain = 0;
  double expected_spurious = 1.0;
  bool expected_spurious_set = false;
  double delta = 1e-9;
  bool delta_set = false;
  std::uint64_t workload_seed = 1;
  std::string out_path;
  dphist::NoiseModel noise_model = dphist::NoiseModel::kAuto;
  bool noise_model_set = false;
};

// Parses trailing --n/--seed/--queries/--budget/--batches/--journal/
// --shards/--tenant/--noise-model flags from argv[start..).
bool ParseFlags(int argc, char** argv, int start, Flags* flags) {
  for (int i = start; i < argc; ++i) {
    auto need_value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--n") == 0) {
      const char* value = need_value("--n");
      if (value == nullptr) return false;
      flags->n = static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      const char* value = need_value("--seed");
      if (value == nullptr) return false;
      flags->seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(argv[i], "--queries") == 0) {
      const char* value = need_value("--queries");
      if (value == nullptr) return false;
      flags->queries =
          static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
    } else if (std::strcmp(argv[i], "--budget") == 0) {
      const char* value = need_value("--budget");
      if (value == nullptr) return false;
      flags->budget = std::atof(value);
    } else if (std::strcmp(argv[i], "--batches") == 0) {
      const char* value = need_value("--batches");
      if (value == nullptr) return false;
      flags->batches =
          static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
    } else if (std::strcmp(argv[i], "--journal") == 0) {
      const char* value = need_value("--journal");
      if (value == nullptr) return false;
      flags->journal_dir = value;
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      const char* value = need_value("--shards");
      if (value == nullptr) return false;
      flags->shards =
          static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
    } else if (std::strcmp(argv[i], "--tenant") == 0) {
      const char* value = need_value("--tenant");
      if (value == nullptr) return false;
      flags->tenant = value;
    } else if (std::strcmp(argv[i], "--listen") == 0) {
      const char* value = need_value("--listen");
      if (value == nullptr) return false;
      flags->listen_set = true;
      flags->listen_port =
          static_cast<std::uint16_t>(std::strtoul(value, nullptr, 10));
    } else if (std::strcmp(argv[i], "--max-inflight") == 0) {
      const char* value = need_value("--max-inflight");
      if (value == nullptr) return false;
      flags->max_inflight =
          static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
    } else if (std::strcmp(argv[i], "--host") == 0) {
      const char* value = need_value("--host");
      if (value == nullptr) return false;
      flags->host = value;
    } else if (std::strcmp(argv[i], "--port") == 0) {
      const char* value = need_value("--port");
      if (value == nullptr) return false;
      flags->port =
          static_cast<std::uint16_t>(std::strtoul(value, nullptr, 10));
    } else if (std::strcmp(argv[i], "--codec") == 0) {
      const char* value = need_value("--codec");
      if (value == nullptr) return false;
      if (std::strcmp(value, "binary") == 0) {
        flags->binary_codec = true;
      } else if (std::strcmp(value, "json") == 0) {
        flags->binary_codec = false;
      } else {
        std::fprintf(stderr, "--codec must be binary or json (got: %s)\n",
                     value);
        return false;
      }
    } else if (std::strcmp(argv[i], "--publisher") == 0) {
      const char* value = need_value("--publisher");
      if (value == nullptr) return false;
      flags->publisher = value;
      flags->publisher_set = true;
    } else if (std::strcmp(argv[i], "--sparse-domain") == 0) {
      const char* value = need_value("--sparse-domain");
      if (value == nullptr) return false;
      // Exact unsigned parse: domains run to 2^63, far past what a double
      // round-trip preserves.
      const char* end = value + std::strlen(value);
      const auto [ptr, ec] = std::from_chars(value, end, flags->sparse_domain);
      if (ec != std::errc() || ptr != end || flags->sparse_domain == 0) {
        std::fprintf(stderr,
                     "--sparse-domain must be a positive 64-bit integer "
                     "(got: %s)\n",
                     value);
        return false;
      }
    } else if (std::strcmp(argv[i], "--expected-spurious") == 0) {
      const char* value = need_value("--expected-spurious");
      if (value == nullptr) return false;
      flags->expected_spurious = std::atof(value);
      flags->expected_spurious_set = true;
    } else if (std::strcmp(argv[i], "--delta") == 0) {
      const char* value = need_value("--delta");
      if (value == nullptr) return false;
      flags->delta = std::atof(value);
      flags->delta_set = true;
    } else if (std::strcmp(argv[i], "--epsilon") == 0) {
      const char* value = need_value("--epsilon");
      if (value == nullptr) return false;
      flags->epsilon = std::atof(value);
    } else if (std::strcmp(argv[i], "--workload-seed") == 0) {
      const char* value = need_value("--workload-seed");
      if (value == nullptr) return false;
      flags->workload_seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(argv[i], "--out") == 0) {
      const char* value = need_value("--out");
      if (value == nullptr) return false;
      flags->out_path = value;
    } else if (std::strcmp(argv[i], "--noise-model") == 0) {
      const char* value = need_value("--noise-model");
      if (value == nullptr) return false;
      if (!dphist::ParseNoiseModel(value, &flags->noise_model)) {
        std::fprintf(stderr,
                     "--noise-model must be auto, textbook, batched, "
                     "snapped, or discrete (got: %s)\n",
                     value);
        return false;
      }
      flags->noise_model_set = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return false;
    }
  }
  return true;
}

// Resolves an algorithm name the way the serving stack does: the literal
// name "env" defers to DPHIST_PUBLISHER (falling back to noise_first), so
// scripts can switch publishers without editing the command line.
std::string ResolveAlgorithm(const std::string& algorithm) {
  if (algorithm == "env") {
    return dphist::PublisherRegistry::NameFromEnv("noise_first");
  }
  return algorithm;
}

// Builds a sparse publisher honoring explicit --expected-spurious /
// --delta overrides (re-wrapped in the registry's obs decorator, matching
// the dense flag-override path).
dphist::Result<std::unique_ptr<dphist::sparse::SparseHistogramPublisher>>
MakeSparsePublisher(const std::string& name, const Flags& flags) {
  if (flags.expected_spurious_set && name == "sparse_pure") {
    dphist::sparse::SparsePurePublisher::Options options;
    options.expected_spurious = flags.expected_spurious;
    return dphist::PublisherRegistry::InstrumentSparse(
        std::make_unique<dphist::sparse::SparsePurePublisher>(options));
  }
  if (flags.delta_set && name == "unknown_domain") {
    dphist::sparse::UnknownDomainPublisher::Options options;
    options.delta = flags.delta;
    return dphist::PublisherRegistry::InstrumentSparse(
        std::make_unique<dphist::sparse::UnknownDomainPublisher>(options));
  }
  return dphist::PublisherRegistry::MakeSparse(name);
}

int Usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  dphist_tool generate <age|nettrace|searchlogs|social> <out.csv>"
      " [--n N] [--seed S]\n"
      "  dphist_tool publish <algorithm> <epsilon> <in.csv> <out.csv>"
      " [--seed S]\n"
      "           [--noise-model auto|textbook|batched|snapped|discrete]\n"
      "           [--sparse-domain D] [--expected-spurious S] [--delta D]\n"
      "  dphist_tool evaluate <truth.csv> <released.csv> [--queries Q]"
      " [--seed S]\n"
      "  dphist_tool serve <algorithm> <epsilon-per-release> <in.csv>"
      " [--budget E] [--batches B] [--queries Q] [--seed S]"
      " [--journal DIR] [--shards N] [--tenant NAME]"
      " [--listen PORT] [--max-inflight N] [--sparse-domain D]\n"
      "  dphist_tool query [--host H] [--port P] [--codec binary|json]"
      " [--publisher A] [--epsilon E] [--seed S] [--queries Q]"
      " [--workload-seed S] [--tenant NAME] [--out FILE]\n"
      "  dphist_tool list\n"
      "\n"
      "serve --listen PORT exposes the store over HTTP/1.1 on\n"
      "127.0.0.1:PORT (0 picks an ephemeral port; the bound port is\n"
      "printed) instead of running local batches, until SIGINT/SIGTERM.\n"
      "--max-inflight bounds the admission queue (excess requests are\n"
      "refused with a typed 503). query connects to such a server, asks a\n"
      "deterministic random-range workload (--queries, --workload-seed)\n"
      "in the chosen codec, and prints one answer per line with\n"
      "round-trip precision — two runs differing only in --codec must\n"
      "print byte-identical answers.\n"
      "\n"
      "--journal makes serving durable: charges and publications are\n"
      "written ahead to DIR/events.jnl and replayed on the next start, so\n"
      "a restart never re-spends epsilon that already bought a release\n"
      "(default: $DPHIST_JOURNAL_DIR; unset means in-memory). --shards\n"
      "sets the release-cache shard count (default: $DPHIST_SERVE_SHARDS).\n"
      "--tenant names the serving namespace.\n"
      "\n"
      "--sparse-domain D switches publish/serve to the sparse\n"
      "representation: the input CSV holds `key,count` lines (keys\n"
      "strictly increasing, < D, D up to 2^63) and <algorithm> names a\n"
      "sparse publisher (`dphist_tool list`): sparse_pure (pure eps-DP\n"
      "thresholded release; --expected-spurious tunes the spurious-key\n"
      "budget) or unknown_domain ((eps, delta)-DP stability threshold;\n"
      "--delta sets delta). The literal algorithm name `env` defers to\n"
      "$DPHIST_PUBLISHER (default noise_first); query's --publisher\n"
      "default resolves the same way.\n"
      "\n"
      "--noise-model picks the noise sampling construction for dwork /\n"
      "geometric / noise_first / structure_first (DESIGN §10): textbook\n"
      "(the historical scalar samplers, the default), batched (the SIMD\n"
      "batch kernel), snapped (Mironov-style snapped Laplace), or\n"
      "discrete (exact discrete Laplace). The DPHIST_NOISE_MODEL\n"
      "environment variable applies the same override to every\n"
      "mechanism-based publisher; an explicit flag wins.\n");
  return 2;
}

int RunGenerate(int argc, char** argv) {
  if (argc < 4) {
    return Usage();
  }
  Flags flags;
  if (!ParseFlags(argc, argv, 4, &flags)) {
    return 2;
  }
  const std::string kind = argv[2];
  dphist::Dataset dataset;
  if (kind == "age") {
    dataset = dphist::MakeAge(flags.seed);
  } else if (kind == "nettrace") {
    dataset = dphist::MakeNetTrace(flags.n, flags.seed);
  } else if (kind == "searchlogs") {
    dataset = dphist::MakeSearchLogs(flags.n, flags.seed);
  } else if (kind == "social") {
    dataset = dphist::MakeSocialNetwork(flags.n, flags.seed);
  } else {
    std::fprintf(stderr, "unknown dataset kind: %s\n", kind.c_str());
    return 2;
  }
  const dphist::Status status =
      dphist::SaveHistogramCsv(dataset.histogram, argv[3]);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu bins, %s)\n", argv[3], dataset.histogram.size(),
              dataset.description.c_str());
  return 0;
}

int RunPublish(int argc, char** argv) {
  if (argc < 6) {
    return Usage();
  }
  Flags flags;
  if (!ParseFlags(argc, argv, 6, &flags)) {
    return 2;
  }
  const double epsilon = std::atof(argv[3]);
  const std::string algorithm = ResolveAlgorithm(argv[2]);
  if (flags.sparse_domain > 0) {
    auto publisher = MakeSparsePublisher(algorithm, flags);
    if (!publisher.ok()) {
      std::fprintf(stderr, "%s\n", publisher.status().ToString().c_str());
      return 1;
    }
    auto truth =
        dphist::sparse::LoadSparseHistogramCsv(argv[4], flags.sparse_domain);
    if (!truth.ok()) {
      std::fprintf(stderr, "%s\n", truth.status().ToString().c_str());
      return 1;
    }
    dphist::Rng rng(flags.seed);
    dphist::sparse::SparsePublishStats stats;
    auto released =
        publisher.value()->Publish(truth.value(), epsilon, rng, &stats);
    if (!released.ok()) {
      std::fprintf(stderr, "%s\n", released.status().ToString().c_str());
      return 1;
    }
    const dphist::Status status =
        dphist::sparse::SaveSparseHistogramCsv(released.value(), argv[5]);
    if (!status.ok()) {
      std::fprintf(stderr, "%s\n", status.ToString().c_str());
      return 1;
    }
    std::printf(
        "published %s with %s at epsilon=%g over domain %llu -> %s "
        "(%llu released, %llu suppressed, %llu spurious, threshold=%.4f)\n",
        argv[4], publisher.value()->name().c_str(), epsilon,
        static_cast<unsigned long long>(flags.sparse_domain), argv[5],
        static_cast<unsigned long long>(stats.released_keys),
        static_cast<unsigned long long>(stats.suppressed_keys),
        static_cast<unsigned long long>(stats.spurious_keys),
        stats.threshold);
    return 0;
  }
  auto publisher = dphist::PublisherRegistry::Make(algorithm);
  if (!publisher.ok()) {
    std::fprintf(stderr, "%s\n", publisher.status().ToString().c_str());
    return 1;
  }
  // An explicit --noise-model rebuilds the publisher with the model in
  // its Options (beating any DPHIST_NOISE_MODEL in the environment),
  // re-wrapped in the registry's obs decorator so metrics stay uniform.
  if (flags.noise_model_set) {
    if (algorithm == "noise_first") {
      dphist::NoiseFirst::Options options;
      options.noise_model = flags.noise_model;
      publisher = dphist::PublisherRegistry::Instrument(
          std::make_unique<dphist::NoiseFirst>(options));
    } else if (algorithm == "structure_first") {
      dphist::StructureFirst::Options options;
      options.noise_model = flags.noise_model;
      publisher = dphist::PublisherRegistry::Instrument(
          std::make_unique<dphist::StructureFirst>(options));
    } else if (algorithm == "dwork") {
      dphist::IdentityLaplace::Options options;
      options.noise_model = flags.noise_model;
      publisher = dphist::PublisherRegistry::Instrument(
          std::make_unique<dphist::IdentityLaplace>(options));
    } else if (algorithm == "geometric") {
      dphist::IdentityGeometric::Options options;
      options.noise_model = flags.noise_model;
      publisher = dphist::PublisherRegistry::Instrument(
          std::make_unique<dphist::IdentityGeometric>(options));
    } else {
      std::fprintf(stderr,
                   "note: --noise-model affects only dwork, geometric, "
                   "noise_first and structure_first; ignored for %s\n",
                   algorithm.c_str());
    }
  }
  auto truth = dphist::LoadHistogramCsv(argv[4]);
  if (!truth.ok()) {
    std::fprintf(stderr, "%s\n", truth.status().ToString().c_str());
    return 1;
  }
  dphist::Rng rng(flags.seed);
  auto released = publisher.value()->Publish(truth.value(), epsilon, rng);
  if (!released.ok()) {
    std::fprintf(stderr, "%s\n", released.status().ToString().c_str());
    return 1;
  }
  const dphist::Status status =
      dphist::SaveHistogramCsv(released.value(), argv[5]);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("published %s with %s at epsilon=%g -> %s\n", argv[4],
              publisher.value()->name().c_str(), epsilon, argv[5]);
  return 0;
}

int RunEvaluate(int argc, char** argv) {
  if (argc < 4) {
    return Usage();
  }
  Flags flags;
  if (!ParseFlags(argc, argv, 4, &flags)) {
    return 2;
  }
  auto truth = dphist::LoadHistogramCsv(argv[2]);
  auto released = dphist::LoadHistogramCsv(argv[3]);
  if (!truth.ok() || !released.ok()) {
    std::fprintf(stderr, "failed to load inputs\n");
    return 1;
  }
  dphist::Rng rng(flags.seed);
  auto queries = dphist::RandomRangeWorkload(truth.value().size(),
                                             flags.queries, rng);
  if (!queries.ok()) {
    std::fprintf(stderr, "%s\n", queries.status().ToString().c_str());
    return 1;
  }
  auto error = dphist::EvaluateWorkload(truth.value(), released.value(),
                                        queries.value());
  if (!error.ok()) {
    std::fprintf(stderr, "%s\n", error.status().ToString().c_str());
    return 1;
  }
  auto kl = dphist::KlDivergence(truth.value(), released.value());
  std::printf("random-range workload (%zu queries):\n", flags.queries);
  std::printf("  mae = %.4f\n  mse = %.4f\n  max = %.4f\n",
              error.value().mean_absolute, error.value().mean_squared,
              error.value().max_absolute);
  std::printf("  kl(true || released) = %.6f\n", kl.value_or(-1.0));
  return 0;
}

// Demonstrates the serving layer: load a CSV histogram, stand up a
// ReleaseServer with a lifetime budget, and drive `--batches` query
// batches at distinct seeds until the ledger refuses and batches degrade
// to stale cached releases. With --journal (or DPHIST_JOURNAL_DIR) the
// store is durable: this run replays whatever a previous run journaled,
// then appends its own charges and publications.
int RunServe(int argc, char** argv) {
  if (argc < 5) {
    return Usage();
  }
  Flags flags;
  if (!ParseFlags(argc, argv, 5, &flags)) {
    return 2;
  }
  const double epsilon = std::atof(argv[3]);
  const bool sparse = flags.sparse_domain > 0;
  dphist::Histogram dense_truth;
  std::optional<dphist::sparse::SparseHistogram> sparse_truth;
  std::size_t domain = 0;
  std::uint64_t fingerprint = 0;
  if (sparse) {
    auto loaded =
        dphist::sparse::LoadSparseHistogramCsv(argv[4], flags.sparse_domain);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    domain = static_cast<std::size_t>(loaded.value().domain_size());
    fingerprint = dphist::sparse::FingerprintSparseHistogram(loaded.value());
    sparse_truth = std::move(loaded).value();
  } else {
    auto loaded = dphist::LoadHistogramCsv(argv[4]);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 1;
    }
    domain = loaded.value().size();
    fingerprint = dphist::serve::FingerprintHistogram(loaded.value());
    dense_truth = std::move(loaded).value();
  }

  std::string journal_dir = flags.journal_dir;
  if (journal_dir.empty()) {
    journal_dir = dphist::serve::JournalDirFromEnv().value_or("");
  }
  std::unique_ptr<dphist::serve::Journal> journal;
  std::string journal_path;
  if (!journal_dir.empty()) {
    journal_path = journal_dir + "/events.jnl";
    auto opened = dphist::serve::Journal::Open(journal_path);
    if (!opened.ok()) {
      std::fprintf(stderr, "journal open failed: %s\n",
                   opened.status().ToString().c_str());
      return 1;
    }
    journal = std::move(opened).value();
  }

  dphist::serve::ReleaseServerOptions options;
  options.cache_shards = flags.shards;
  options.journal = journal.get();
  dphist::serve::ReleaseServer server(options);
  const dphist::serve::TenantKey ns{flags.tenant, "default"};
  const dphist::Status added =
      sparse ? server.AddSparseDataset(ns, std::move(*sparse_truth),
                                      flags.budget)
             : server.AddDataset(ns, std::move(dense_truth), flags.budget);
  if (!added.ok()) {
    std::fprintf(stderr, "%s\n", added.ToString().c_str());
    return 1;
  }
  if (journal != nullptr) {
    auto replay = dphist::serve::ReplayJournalFile(journal_path);
    if (!replay.ok()) {
      std::fprintf(stderr, "journal replay failed: %s\n",
                   replay.status().ToString().c_str());
      return 1;
    }
    auto recovered = server.Recover(replay.value());
    if (!recovered.ok()) {
      std::fprintf(stderr, "recovery failed: %s\n",
                   recovered.status().ToString().c_str());
      return 1;
    }
    std::printf("journal %s: %s\n", journal_path.c_str(),
                recovered.value().ToString().c_str());
  }
  std::printf("serving %s as %s (n=%zu, fingerprint=%016llx, %zu cache "
              "shard(s)) with budget epsilon=%g, %g per release\n",
              argv[4], dphist::serve::FormatTenantKey(ns).c_str(), domain,
              static_cast<unsigned long long>(fingerprint),
              server.cache().shard_count(), flags.budget, epsilon);

  if (flags.listen_set) {
    // Network mode: expose the store over HTTP until SIGINT/SIGTERM.
    // Workers come from ThreadPool::Global(), so DPHIST_THREADS sizes the
    // handler pool exactly like every other parallel stage. A long-running
    // server records its own metrics regardless of DPHIST_OBS_OUT — the
    // /statsz endpoint is useless over an empty snapshot.
    dphist::obs::Registry::Global().set_enabled(true);
    dphist::net::NetServerOptions net_options;
    net_options.port = flags.listen_port;
    net_options.max_inflight = flags.max_inflight;
    dphist::net::NetServer net_server(&server, net_options);
    const dphist::Status started = net_server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "%s\n", started.ToString().c_str());
      return 1;
    }
    std::printf("listening on %s (max_inflight=%zu)\n",
                net_server.address().c_str(), flags.max_inflight);
    std::fflush(stdout);
    g_stop_requested = 0;
    std::signal(SIGINT, HandleStopSignal);
    std::signal(SIGTERM, HandleStopSignal);
    while (g_stop_requested == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    net_server.Stop();
    auto ledger = server.LedgerFor(ns);
    if (ledger.ok()) {
      std::printf("stopped; cache: %zu release(s); ledger: spent %.4f of "
                  "%.4f (%zu charges)\n",
                  server.cache().size(), ledger.value()->spent_epsilon(),
                  ledger.value()->total_epsilon(),
                  ledger.value()->charge_count());
    }
    return 0;
  }

  dphist::Rng workload_rng(flags.seed);
  auto queries =
      dphist::RandomRangeWorkload(domain, flags.queries, workload_rng);
  if (!queries.ok()) {
    std::fprintf(stderr, "%s\n", queries.status().ToString().c_str());
    return 1;
  }
  std::size_t fresh = 0;
  std::size_t hits = 0;
  std::size_t stale = 0;
  for (std::size_t b = 0; b < flags.batches; ++b) {
    dphist::serve::ServeRequest request;
    request.publisher = ResolveAlgorithm(argv[2]);
    request.epsilon = epsilon;
    request.seed = flags.seed + b;
    auto batch = server.AnswerBatch(ns, queries.value(), request);
    if (!batch.ok()) {
      std::fprintf(stderr, "batch %zu failed: %s\n", b,
                   batch.status().ToString().c_str());
      return 1;
    }
    double total = 0.0;
    for (double answer : batch.value().answers) {
      total += answer;
    }
    const char* kind = batch.value().stale
                           ? "stale"
                           : (batch.value().cache_hit ? "hit" : "fresh");
    std::printf("  batch %zu: seed=%llu -> %s (served seed=%llu, "
                "mean answer=%.3f)\n",
                b, static_cast<unsigned long long>(request.seed), kind,
                static_cast<unsigned long long>(batch.value().served.seed),
                total / static_cast<double>(batch.value().answers.size()));
    if (batch.value().stale) {
      ++stale;
    } else if (batch.value().cache_hit) {
      ++hits;
    } else {
      ++fresh;
    }
  }
  std::printf("batches: %zu fresh, %zu cache hits, %zu stale\n", fresh, hits,
              stale);
  auto ledger = server.LedgerFor(ns);
  if (!ledger.ok()) {
    std::fprintf(stderr, "%s\n", ledger.status().ToString().c_str());
    return 1;
  }
  std::printf("cache: %zu release(s); ledger: spent %.4f of %.4f "
              "(%zu charges)\n",
              server.cache().size(), ledger.value()->spent_epsilon(),
              ledger.value()->total_epsilon(),
              ledger.value()->charge_count());
  return 0;
}

// Connects to a `serve --listen` server, asks a deterministic
// random-range workload, and prints one answer per line with round-trip
// precision. The answers are the wire bytes decoded — so diffing a
// --codec binary run against a --codec json run proves the two paths
// byte-identical (the CI loopback smoke does exactly that).
int RunQuery(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, 2, &flags)) {
    return 2;
  }
  if (flags.port == 0) {
    std::fprintf(stderr, "query requires --port\n");
    return 2;
  }
  dphist::net::NetClient client;
  const dphist::Status connected = client.Connect(flags.host, flags.port);
  if (!connected.ok()) {
    std::fprintf(stderr, "%s\n", connected.ToString().c_str());
    return 1;
  }

  // The workload needs the served domain size; /v1/meta reports it.
  dphist::net::HttpMessage meta_request;
  meta_request.method = "GET";
  meta_request.target = "/v1/meta";
  auto meta_response = client.RoundTrip(meta_request);
  if (!meta_response.ok()) {
    std::fprintf(stderr, "%s\n", meta_response.status().ToString().c_str());
    return 1;
  }
  auto meta = dphist::obs::ParseFlatJson(meta_response.value().body);
  if (!meta.ok()) {
    std::fprintf(stderr, "bad /v1/meta response: %s\n",
                 meta.status().ToString().c_str());
    return 1;
  }
  const auto domain_it = meta.value().find("domain_size");
  if (domain_it == meta.value().end() ||
      domain_it->second.kind != dphist::obs::JsonValue::Kind::kNumber ||
      domain_it->second.number_value < 1.0) {
    std::fprintf(stderr, "server reports no served dataset\n");
    return 1;
  }
  const std::size_t domain =
      static_cast<std::size_t>(domain_it->second.number_value);

  dphist::Rng workload_rng(flags.workload_seed);
  auto queries =
      dphist::RandomRangeWorkload(domain, flags.queries, workload_rng);
  if (!queries.ok()) {
    std::fprintf(stderr, "%s\n", queries.status().ToString().c_str());
    return 1;
  }

  dphist::net::WireQueryRequest query;
  query.tenant = flags.tenant;
  // An explicit --publisher wins; otherwise DPHIST_PUBLISHER may override
  // the default, matching the registry's env resolution.
  query.request.publisher =
      flags.publisher_set
          ? flags.publisher
          : dphist::PublisherRegistry::NameFromEnv(flags.publisher);
  query.request.epsilon = flags.epsilon;
  query.request.seed = flags.seed;
  query.queries = std::move(queries).value();
  auto answer = client.Query(query, flags.binary_codec);
  if (!answer.ok()) {
    std::fprintf(stderr, "%s\n", answer.status().ToString().c_str());
    return 1;
  }

  std::FILE* out = stdout;
  if (!flags.out_path.empty()) {
    out = std::fopen(flags.out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", flags.out_path.c_str());
      return 1;
    }
  }
  for (const double value : answer.value().answers) {
    std::fprintf(out, "%.17g\n", value);
  }
  if (out != stdout) {
    std::fclose(out);
  }
  std::fprintf(stderr,
               "%zu answers over %s codec (%s, served seed=%llu, domain "
               "n=%zu)\n",
               answer.value().answers.size(),
               flags.binary_codec ? "binary" : "json",
               answer.value().stale
                   ? "stale"
                   : (answer.value().cache_hit ? "cache hit" : "fresh"),
               static_cast<unsigned long long>(answer.value().served.seed),
               domain);
  return 0;
}

int RunList() {
  std::printf("available algorithms:\n");
  for (const std::string& name : dphist::PublisherRegistry::BuiltinNames()) {
    std::printf("  %s\n", name.c_str());
  }
  std::printf("sparse algorithms (require --sparse-domain):\n");
  for (const std::string& name : dphist::PublisherRegistry::SparseNames()) {
    std::printf("  %s\n", name.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  int rc = 0;
  if (command == "generate") {
    rc = RunGenerate(argc, argv);
  } else if (command == "publish") {
    rc = RunPublish(argc, argv);
  } else if (command == "evaluate") {
    rc = RunEvaluate(argc, argv);
  } else if (command == "serve") {
    rc = RunServe(argc, argv);
  } else if (command == "query") {
    rc = RunQuery(argc, argv);
  } else if (command == "list") {
    rc = RunList();
  } else {
    rc = Usage();
  }
  // Flush obs metrics (no-op unless DPHIST_OBS_OUT is set), so `publish`
  // runs report draw counts and solver timings like the bench binaries do.
  dphist::obs::ExportToEnv("dphist_tool/" + command);
  return rc;
}
