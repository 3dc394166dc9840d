#include "dphist/algorithms/registry.h"

#include <gtest/gtest.h>

#include "dphist/obs/obs.h"
#include "dphist/random/rng.h"

namespace dphist {
namespace {

TEST(RegistryTest, PaperNamesStable) {
  const std::vector<std::string> names = PublisherRegistry::PaperNames();
  ASSERT_EQ(names.size(), 5u);
  EXPECT_EQ(names[0], "dwork");
  EXPECT_EQ(names[1], "boost");
  EXPECT_EQ(names[2], "privelet");
  EXPECT_EQ(names[3], "noise_first");
  EXPECT_EQ(names[4], "structure_first");
}

TEST(RegistryTest, BuiltinNamesExtendPaperNames) {
  const std::vector<std::string> paper = PublisherRegistry::PaperNames();
  const std::vector<std::string> all = PublisherRegistry::BuiltinNames();
  ASSERT_EQ(all.size(), 11u);
  for (std::size_t i = 0; i < paper.size(); ++i) {
    EXPECT_EQ(all[i], paper[i]);
  }
  EXPECT_EQ(all[5], "geometric");
  EXPECT_EQ(all[6], "efpa");
  EXPECT_EQ(all[7], "mwem");
  EXPECT_EQ(all[8], "p_hp");
  EXPECT_EQ(all[9], "ahp");
  EXPECT_EQ(all[10], "gs");
}

TEST(RegistryTest, MakeEveryBuiltin) {
  for (const std::string& name : PublisherRegistry::BuiltinNames()) {
    auto made = PublisherRegistry::Make(name);
    ASSERT_TRUE(made.ok()) << name;
    EXPECT_EQ(made.value()->name(), name);
  }
}

TEST(RegistryTest, UnknownNameIsNotFound) {
  auto made = PublisherRegistry::Make("dawa");
  EXPECT_FALSE(made.ok());
  EXPECT_EQ(made.status().code(), StatusCode::kNotFound);
}

TEST(RegistryTest, MakePaperSuiteSize) {
  EXPECT_EQ(PublisherRegistry::MakePaperSuite().size(), 5u);
}

TEST(RegistryTest, MakeAllReturnsWorkingPublishers) {
  const Histogram truth({10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0});
  Rng rng(1);
  auto all = PublisherRegistry::MakeAll();
  ASSERT_EQ(all.size(), 11u);
  for (const auto& publisher : all) {
    Rng local = rng.Fork();
    auto out = publisher->Publish(truth, 1.0, local);
    ASSERT_TRUE(out.ok()) << publisher->name();
    EXPECT_EQ(out.value().size(), truth.size()) << publisher->name();
  }
}

TEST(RegistryTest, StagesComposeToPublishForEveryBuiltin) {
  // Only StructureFirst has a data-only stage; every other publisher's
  // Prepare returns null. Either way the decorator forwards both stages,
  // and Publish is exactly Prepare then PublishPrepared.
  obs::Registry::Global().Reset();
  obs::Registry::Global().set_enabled(true);
  const Histogram truth({10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0});
  for (const std::string& name : PublisherRegistry::BuiltinNames()) {
    auto made = PublisherRegistry::Make(name);
    ASSERT_TRUE(made.ok()) << name;
    auto prepared = made.value()->Prepare(truth);
    ASSERT_TRUE(prepared.ok()) << name;
    EXPECT_EQ(prepared.value() != nullptr, name == "structure_first") << name;
    Rng staged_rng(4);
    Rng scratch_rng(4);
    auto staged = made.value()->PublishPrepared(truth, prepared.value().get(),
                                                1.0, staged_rng);
    auto scratch = made.value()->Publish(truth, 1.0, scratch_rng);
    ASSERT_TRUE(staged.ok()) << name;
    ASSERT_TRUE(scratch.ok()) << name;
    EXPECT_EQ(staged.value().counts(), scratch.value().counts()) << name;
    // Two releases, two runs: Prepare is not a run.
    EXPECT_EQ(obs::Registry::Global()
                  .GetCounter("publisher/" + name + "/runs")
                  .value(),
              2u)
        << name;
  }
  obs::Registry::Global().set_enabled(false);
  obs::Registry::Global().Reset();
}

}  // namespace
}  // namespace dphist
