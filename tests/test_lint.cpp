// tools/rg_lint driven in-process: the fixture tree must produce exactly
// the seeded findings, and the real tree must be clean.
//
// RG_LINT_REPO_ROOT / RG_LINT_FIXTURES are absolute paths injected by
// tests/CMakeLists.txt, so the tests are independent of the ctest working
// directory.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>

#include "lint.hpp"

namespace {

using rg::lint::Check;
using rg::lint::Finding;
using rg::lint::Options;
using rg::lint::Report;

std::map<std::string, int> count_by_class(const Report& report) {
  std::map<std::string, int> counts;
  for (const Finding& f : report.findings) ++counts[rg::lint::to_string(f.check)];
  return counts;
}

TEST(Lint, FixtureTreeProducesExactlyTheSeededFindings) {
  Options options;
  options.root = RG_LINT_FIXTURES;
  const Report report = rg::lint::run(options);

  const std::map<std::string, int> expected = {
      {"alloc", 1}, {"lock", 1},   {"io", 4},     {"throw", 1},    {"block", 1},
      {"push_back", 1}, {"call", 1}, {"cast", 1}, {"metric", 3}, {"errorcode", 2},
      {"thread_role", 2}, {"nondet", 3}, {"stale_waiver", 2},
  };
  EXPECT_EQ(count_by_class(report), expected) << [&] {
    std::string all;
    for (const Finding& f : report.findings) {
      all += f.file + ":" + std::to_string(f.line) + ": [" +
             rg::lint::to_string(f.check) + "] " + f.message + "\n";
    }
    return all;
  }();
  EXPECT_EQ(report.findings.size(), 23u);
}

TEST(Lint, FixtureFindingsCarryFileAndLine) {
  Options options;
  options.root = RG_LINT_FIXTURES;
  const Report report = rg::lint::run(options);
  for (const Finding& f : report.findings) {
    EXPECT_FALSE(f.file.empty());
    EXPECT_GT(f.line, 0) << f.file << ": " << f.message;
    EXPECT_FALSE(f.message.empty());
  }
  // The propagation finding names both ends of the edge.
  const auto call = std::find_if(
      report.findings.begin(), report.findings.end(),
      [](const Finding& f) { return f.check == Check::kCall; });
  ASSERT_NE(call, report.findings.end());
  EXPECT_NE(call->message.find("tick"), std::string::npos);
  EXPECT_NE(call->message.find("helper_unannotated"), std::string::npos);
  // So does a thread-role finding (caller, callee, both roles).
  const auto role = std::find_if(
      report.findings.begin(), report.findings.end(),
      [](const Finding& f) { return f.check == Check::kThreadRole; });
  ASSERT_NE(role, report.findings.end());
  EXPECT_NE(role->message.find("pump_calls_shard"), std::string::npos);
  EXPECT_NE(role->message.find("shard_only"), std::string::npos);
  EXPECT_NE(role->message.find("RG_THREAD(shard)"), std::string::npos);
  // A nondet finding names the nondeterminism class it tripped.
  const auto nondet = std::find_if(
      report.findings.begin(), report.findings.end(),
      [](const Finding& f) { return f.check == Check::kNondet; });
  ASSERT_NE(nondet, report.findings.end());
  EXPECT_NE(nondet->message.find("RG_DETERMINISTIC"), std::string::npos);
  // A stale-waiver finding names the dead class so the fix is obvious.
  const auto stale = std::find_if(
      report.findings.begin(), report.findings.end(),
      [](const Finding& f) { return f.check == Check::kStaleWaiver; });
  ASSERT_NE(stale, report.findings.end());
  EXPECT_NE(stale->message.find("allow("), std::string::npos);
  EXPECT_NE(stale->message.find("remove it"), std::string::npos);
}

TEST(Lint, RealTreeIsClean) {
  Options options;
  options.root = RG_LINT_REPO_ROOT;
  const Report report = rg::lint::run(options);
  std::string all;
  for (const Finding& f : report.findings) {
    all += f.file + ":" + std::to_string(f.line) + ": [" +
           rg::lint::to_string(f.check) + "] " + f.message + "\n";
  }
  EXPECT_TRUE(report.findings.empty()) << all;
  // Sanity: the scan actually covered the tree and its annotations.
  EXPECT_GT(report.files_scanned, 150u);
  EXPECT_GT(report.realtime_functions, 150u);
  EXPECT_GT(report.thread_role_functions, 40u);
  EXPECT_GT(report.deterministic_functions, 20u);
}

TEST(Lint, RealTreeMetricInventoryMatchesKnownFamilies) {
  Options options;
  options.root = RG_LINT_REPO_ROOT;
  const Report report = rg::lint::run(options);
  const auto has = [&](const char* name) {
    return std::find(report.metric_names.begin(), report.metric_names.end(),
                     name) != report.metric_names.end();
  };
  EXPECT_TRUE(has("rg.span.control.tick"));
  EXPECT_TRUE(has("rg.gw.rx_packets"));
  EXPECT_TRUE(has("rg.gw.shard.*"));  // dynamic registration -> wildcard family
  EXPECT_TRUE(has("rg.pipeline.alarms"));
}

TEST(Lint, RegistryRenderIsSortedAndDeduped) {
  const std::string header = rg::lint::render_metric_registry(
      {"rg.b", "rg.a", "rg.b", "rg.c.*"});
  EXPECT_NE(header.find("#pragma once"), std::string::npos);
  const std::size_t a = header.find("\"rg.a\"");
  const std::size_t b = header.find("\"rg.b\"");
  const std::size_t c = header.find("\"rg.c.*\"");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  ASSERT_NE(c, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_EQ(header.find("\"rg.b\"", b + 1), std::string::npos);  // deduped
}

TEST(Lint, JsonReportCarriesSchemaCountsAndFindings) {
  Options options;
  options.root = RG_LINT_FIXTURES;
  const Report report = rg::lint::run(options);
  const std::string json = rg::lint::render_json(report);
  EXPECT_NE(json.find("\"schema\": \"rg.lint.report/1\""), std::string::npos);
  EXPECT_NE(json.find("\"total\": 23"), std::string::npos);
  EXPECT_NE(json.find("\"thread_role\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"nondet\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"stale_waiver\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"file\": \"src/thread_roles.cpp\""), std::string::npos);
  // Zero-filled classes appear even when clean on the fixture tree.
  EXPECT_NE(json.find("\"counts\""), std::string::npos);
}

TEST(Lint, JsonReportZeroFillsEveryClassWhenEmpty) {
  const Report empty;
  const std::string json = rg::lint::render_json(empty);
  for (const Check check : rg::lint::kAllChecks) {
    const std::string key = std::string("\"") + rg::lint::to_string(check) + "\": 0";
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  EXPECT_NE(json.find("\"findings\": []"), std::string::npos);
}

class LintStaleDb : public ::testing::Test {
 protected:
  void SetUp() override {
    // One tree per test: ctest -j runs the cases as concurrent processes.
    root_ = std::filesystem::path(::testing::TempDir()) /
            (std::string("rg_lint_staledb_") +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_ / "src");
    write(root_ / "src/a.cpp", "int a() { return 1; }\n");
    write(root_ / "src/b.cpp", "int b() { return 2; }\n");
  }
  void TearDown() override { std::filesystem::remove_all(root_); }

  static void write(const std::filesystem::path& path, const std::string& text) {
    std::ofstream os(path);
    os << text;
  }

  void write_db(const std::string& entries) {
    write(root_ / "compile_commands.json", "[" + entries + "]\n");
  }

  [[nodiscard]] std::string entry(const std::string& rel) const {
    return "{\"directory\": \"" + root_.string() + "\", \"command\": \"c++ -c " + rel +
           "\", \"file\": \"" + (root_ / rel).string() + "\"}";
  }

  [[nodiscard]] Report run_with_db() const {
    Options options;
    options.root = root_.string();
    options.compile_commands = (root_ / "compile_commands.json").string();
    return rg::lint::run(options);
  }

  std::filesystem::path root_;
};

TEST_F(LintStaleDb, CompleteDatabaseIsAccepted) {
  write_db(entry("src/a.cpp") + ",\n" + entry("src/b.cpp"));
  const Report report = run_with_db();
  EXPECT_TRUE(report.findings.empty());
  EXPECT_GE(report.files_scanned, 2u);
}

TEST_F(LintStaleDb, DatabaseReferencingDeletedFileDemandsRecmake) {
  write_db(entry("src/a.cpp") + ",\n" + entry("src/b.cpp") + ",\n" + entry("src/gone.cpp"));
  try {
    (void)run_with_db();
    FAIL() << "expected a stale-database error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("re-run cmake"), std::string::npos) << what;
    EXPECT_NE(what.find("gone.cpp"), std::string::npos) << what;
  }
}

TEST_F(LintStaleDb, DatabaseMissingATranslationUnitDemandsRecmake) {
  write_db(entry("src/a.cpp"));  // src/b.cpp exists on disk but is not in the db
  try {
    (void)run_with_db();
    FAIL() << "expected a stale-database error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("re-run cmake"), std::string::npos) << what;
    EXPECT_NE(what.find("src/b.cpp"), std::string::npos) << what;
  }
}

}  // namespace
