// Tests for the bench harness library (bench/bench_util.hpp, `bhss_bench`):
// strict flag parsing, JsonLine formatting, the staged-then-renamed JSONL
// sink, and the checkpointed Campaign — record stamping, the timing
// sidecar, a resume that only reads its journal, worker slices that
// publish nothing, and every path the bench refuses with exit 2.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "runtime/checkpoint_journal.hpp"

namespace bhss::bench {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "bhss_bench_util_" + name + "_" + std::to_string(::getpid());
}

bool exists(const std::string& path) { return std::ifstream(path).good(); }

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

void remove_all(std::initializer_list<std::string> paths) {
  for (const std::string& p : paths) {
    std::remove(p.c_str());
    std::remove((p + ".tmp").c_str());
  }
}

/// The provenance keys JsonLog::write appends to every record.
std::string stamp() {
  return ",\"schema_version\":" + std::to_string(kSchemaVersion) + ",\"git_sha\":\"" +
         build_git_sha() + "\"}";
}

Options parse(std::vector<std::string> args, std::size_t default_packets = 12,
              double default_jnr_db = 30.0) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return parse_options(static_cast<int>(argv.size()), argv.data(), default_packets,
                       default_jnr_db);
}

core::SimConfig small_sim() {
  core::SimConfig cfg;
  cfg.payload_len = 4;
  cfg.n_packets = 4;
  cfg.snr_db = 12.0;
  cfg.jnr_db = 20.0;
  cfg.jammer.kind = core::JammerSpec::Kind::fixed_bandwidth;
  cfg.jammer.bandwidth_frac = 0.1;
  return cfg;
}

// ------------------------------------------------------------ parse_options

TEST(ParseOptions, DefaultsAndPerBenchDefaults) {
  const Options opt = parse({});
  EXPECT_EQ(opt.packets, 12U);
  EXPECT_EQ(opt.seed, 7U);
  EXPECT_EQ(opt.jnr_db, 30.0);
  EXPECT_EQ(opt.threads, 0U);
  EXPECT_EQ(opt.shards, 16U);
  EXPECT_EQ(opt.shard_timeout_s, 0.0);
  EXPECT_TRUE(opt.json_path.empty());
  EXPECT_TRUE(opt.journal_path().empty());
  EXPECT_FALSE(opt.telemetry_enabled());
  EXPECT_FALSE(opt.worker);
  EXPECT_EQ(opt.worker_id, 0U);
  EXPECT_EQ(opt.n_workers, 1U);

  const Options custom = parse({}, 15, 25.0);
  EXPECT_EQ(custom.packets, 15U);
  EXPECT_EQ(custom.jnr_db, 25.0);
}

TEST(ParseOptions, EveryFlagLandsInItsField) {
  const Options opt =
      parse({"--packets=5", "--seed=9", "--jnr=-3.5", "--threads=2", "--shards=4", "--json=a",
             "--checkpoint=b", "--resume=c", "--shard-timeout=1.5", "--metrics=d", "--trace=e",
             "--worker-id=1", "--n-workers=3"});
  EXPECT_EQ(opt.packets, 5U);
  EXPECT_EQ(opt.seed, 9U);
  EXPECT_EQ(opt.jnr_db, -3.5);
  EXPECT_EQ(opt.threads, 2U);
  EXPECT_EQ(opt.shards, 4U);
  EXPECT_EQ(opt.json_path, "a");
  EXPECT_EQ(opt.checkpoint_path, "b");
  EXPECT_EQ(opt.resume_path, "c");
  EXPECT_EQ(opt.journal_path(), "c");  // resume wins over checkpoint
  EXPECT_EQ(opt.shard_timeout_s, 1.5);
  EXPECT_EQ(opt.metrics_path, "d");
  EXPECT_EQ(opt.trace_path, "e");
  EXPECT_TRUE(opt.telemetry_enabled());
  EXPECT_TRUE(opt.worker);
  EXPECT_EQ(opt.worker_id, 1U);
  EXPECT_EQ(opt.n_workers, 3U);
}

TEST(ParseOptions, StrictRejectionsExitWithUsageStatus) {
  const struct {
    const char* arg;
    const char* why;
  } cases[] = {
      {"--packet=5", "unknown argument"},
      {"--supervise=2", "unknown argument"},
      {"positional", "unknown argument"},
      {"--packets", "unknown argument"},
      {"--packets=", "expected a non-negative integer"},
      {"--packets=abc", "expected a non-negative integer"},
      {"--packets=-1", "expected a non-negative integer"},
      {"--packets=+1", "expected a non-negative integer"},
      {"--packets= 5", "expected a non-negative integer"},
      {"--packets=5x", "expected a non-negative integer"},
      {"--threads=1.5", "expected a non-negative integer"},
      {"--seed=99999999999999999999999", "expected a non-negative integer"},
      {"--worker-id=x", "expected a non-negative integer"},
      {"--n-workers=", "expected a non-negative integer"},
      {"--shards=0", "expected a positive shard count"},
      {"--jnr=", "expected a finite number"},
      {"--jnr=inf", "expected a finite number"},
      {"--jnr=nan", "expected a finite number"},
      {"--jnr=3dB", "expected a finite number"},
      {"--shard-timeout=-1", "expected a non-negative number"},
      {"--shard-timeout=inf", "expected a non-negative number"},
  };
  for (const auto& c : cases) {
    EXPECT_EXIT((void)parse({c.arg}), ::testing::ExitedWithCode(kExitUsage), c.why) << c.arg;
  }
  EXPECT_EXIT((void)parse({"--help"}), ::testing::ExitedWithCode(0), "");
}

// ----------------------------------------------------------------- JsonLine

TEST(JsonLine, NumberFormats) {
  EXPECT_EQ(JsonLine().str(), "{}");
  JsonLine line;
  line.add("a", 0.1)
      .add("b", 1.0 / 3.0)
      .add("c", -2.5)
      .add("d", 1e300)
      .add("e", 0.0)
      .add("n", std::size_t{42});
  EXPECT_EQ(line.str(),
            R"({"a":0.1,"b":0.3333333333,"c":-2.5,"d":1e+300,"e":0,"n":42})");
}

TEST(JsonLine, StringsEscapeQuoteBackslashAndControlCharacters) {
  JsonLine line;
  line.add("s", "plain").add("q", "a\"b\\c").add("ctl", "x\ny\t\x01");
  EXPECT_EQ(line.str(), R"({"s":"plain","q":"a\"b\\c","ctl":"x\u000ay\u0009\u0001"})");
}

TEST(JsonLine, FragmentSplicesVerbatim) {
  JsonLine empty;
  empty.fragment("");
  EXPECT_EQ(empty.str(), "{}");

  JsonLine first;
  first.fragment(R"("bins":[1,2])");
  EXPECT_EQ(first.str(), R"({"bins":[1,2]})");

  JsonLine line;
  line.add("point", "p").fragment("").fragment(R"("x":1,"y":[2])").add("z", std::size_t{3});
  EXPECT_EQ(line.str(), R"({"point":"p","x":1,"y":[2],"z":3})");
}

// ------------------------------------------------------------------ JsonLog

TEST(JsonLog, WritesStayInTheTmpFileUntilPublish) {
  const std::string path = temp_path("publish.jsonl");
  remove_all({path});
  {
    JsonLog log;
    ASSERT_TRUE(log.open(path));
    EXPECT_TRUE(log.enabled());
    log.write(JsonLine().add("k", std::size_t{1}));
    log.write_raw(R"({"raw":true})");
    EXPECT_FALSE(exists(path));
    EXPECT_EQ(slurp(path + ".tmp"), "{\"k\":1" + stamp() + "\n{\"raw\":true}\n");
  }
  EXPECT_EQ(slurp(path), "{\"k\":1" + stamp() + "\n{\"raw\":true}\n");
  EXPECT_FALSE(exists(path + ".tmp"));
  remove_all({path});
}

TEST(JsonLog, AbandonLeavesTheTmpFileAndPublishesNothing) {
  const std::string path = temp_path("abandon.jsonl");
  remove_all({path});
  {
    JsonLog log;
    ASSERT_TRUE(log.open(path));
    log.write(JsonLine().add("k", std::size_t{1}));
    log.abandon();
    EXPECT_FALSE(log.enabled());
    log.write(JsonLine().add("k", std::size_t{2}));  // a no-op once abandoned
  }
  EXPECT_FALSE(exists(path));
  EXPECT_EQ(slurp(path + ".tmp"), "{\"k\":1" + stamp() + "\n");
  remove_all({path});
}

TEST(JsonLog, StaleTmpIsRemovedAtOpen) {
  const std::string path = temp_path("stale.jsonl");
  remove_all({path});
  spit(path + ".tmp", "{\"half\":");
  ::testing::internal::CaptureStderr();
  {
    JsonLog log;
    ASSERT_TRUE(log.open(path));
    log.write(JsonLine().add("k", std::size_t{1}));
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("removed stale " + path + ".tmp"), std::string::npos) << err;
  EXPECT_EQ(slurp(path), "{\"k\":1" + stamp() + "\n");
  remove_all({path});
}

TEST(JsonLog, EmptyPathIsDisabledAndAnUnwritablePathFails) {
  JsonLog disabled;
  EXPECT_TRUE(disabled.open(""));
  EXPECT_FALSE(disabled.enabled());
  disabled.write(JsonLine().add("k", std::size_t{1}));

  JsonLog unwritable;
  EXPECT_FALSE(unwritable.open(temp_path("no_such_dir") + "/x.jsonl"));
  EXPECT_FALSE(unwritable.enabled());
}

// ----------------------------------------------------------------- Campaign

TEST(Campaign, EmitStampsTheRecordAndWritesTheTimingLine) {
  const std::string json = temp_path("emit.jsonl");
  remove_all({json, json + ".timing"});
  Options opt;
  opt.threads = 1;
  opt.json_path = json;
  {
    Campaign campaign(opt, "unit");
    campaign.emit("pt0", JsonLine().add("figure", "unit").add("v", 1.5), 0.25);
    EXPECT_FALSE(exists(json));  // published only when the campaign ends
  }
  EXPECT_EQ(slurp(json), "{\"figure\":\"unit\",\"v\":1.5" + stamp() + "\n");
  EXPECT_EQ(slurp(json + ".timing"), "{\"point\":\"pt0\",\"wall_s\":0.25}\n");
  remove_all({json, json + ".timing"});
}

/// One checkpointed bench run: a Monte-Carlo point, a bisection and a
/// closed-form record, with every stream on.
void run_campaign(const Options& opt) {
  Campaign campaign(opt, "unit");
  const core::LinkStats s = campaign.run_point("mc", small_sim());
  campaign.emit("mc", JsonLine().add("per", s.per()).add("packets", s.packets), 0.0);
  core::SimConfig probe = small_sim();
  probe.n_packets = 2;
  const double min_snr = campaign.min_snr_for_per("bisect", probe);
  campaign.emit("bisect", JsonLine().add("min_snr_db", min_snr), 0.0);
  campaign.emit("closed_form", JsonLine().add("gamma_db", 20.0), 0.0);
}

TEST(Campaign, ResumeOfAFinishedCampaignOnlyReadsTheJournal) {
  const std::string base = temp_path("resume");
  const std::string journal = base + ".ckpt";
  const std::vector<std::string> streams = {base + ".jsonl", base + "_metrics.jsonl",
                                            base + "_trace.jsonl"};
  Options opt;
  opt.threads = 2;
  opt.shards = 4;
  opt.json_path = streams[0];
  opt.metrics_path = streams[1];
  opt.trace_path = streams[2];
  opt.checkpoint_path = journal;
  std::remove(journal.c_str());
  run_campaign(opt);
  const std::string journal_bytes = slurp(journal);
  std::vector<std::string> published;
  for (const std::string& s : streams) published.push_back(slurp(s));
  ASSERT_FALSE(published[0].empty());
  EXPECT_EQ(journal_bytes.find("\nP "), std::string::npos);  // shard records only

  opt.checkpoint_path.clear();
  opt.resume_path = journal;
  ::testing::internal::CaptureStderr();
  run_campaign(opt);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("resuming from " + journal), std::string::npos) << err;
  EXPECT_EQ(slurp(journal), journal_bytes);
  for (std::size_t i = 0; i < streams.size(); ++i) {
    EXPECT_EQ(slurp(streams[i]), published[i]) << streams[i];
  }
  remove_all({journal, streams[0], streams[0] + ".timing", streams[1], streams[1] + ".timing",
              streams[2]});
}

TEST(Campaign, WorkerModePublishesNothing) {
  const std::string journal = temp_path("worker.ckpt");
  const std::string json = temp_path("worker.jsonl");
  std::remove(journal.c_str());
  remove_all({json});
  Options opt;
  opt.threads = 1;
  opt.shards = 4;
  opt.json_path = json;
  opt.checkpoint_path = journal;
  opt.worker = true;
  opt.worker_id = 1;
  opt.n_workers = 2;
  {
    Campaign campaign(opt, "unit");
    const core::LinkStats s = campaign.run_point("mc", small_sim());
    campaign.emit("mc", JsonLine().add("per", s.per()), 0.0);
    EXPECT_EQ(campaign.min_snr_for_per("bisect", small_sim()), 0.0);
  }
  EXPECT_FALSE(exists(json));
  EXPECT_FALSE(exists(json + ".tmp"));
  EXPECT_FALSE(exists(json + ".timing"));
  // Shards 1 and 3 of 4, each an O line (telemetry is always collected on
  // a worker) followed by its S line.
  std::ifstream in(journal);
  std::string line;
  std::string kinds;
  std::getline(in, line);  // header
  while (std::getline(in, line)) kinds += line.substr(0, 2);
  EXPECT_EQ(kinds, "O S O S ");
  std::remove(journal.c_str());
}

TEST(Campaign, UnusablePathsExitWithUsageStatusAndLeaveNoFile) {
  const std::string missing = temp_path("missing_dir") + "/x";
  const std::string json = temp_path("refused.jsonl");
  const std::string journal = temp_path("refused.ckpt");

  // Journals the campaign may not resume, each left byte-identical.
  const auto make_journal = [&](const char* figure, int schema) {
    std::remove(journal.c_str());
    runtime::CheckpointJournal j;
    j.open(journal, figure, schema, "sha", false);
    j.record_quarantine({"pt", 1}, 0, 3);
  };
  const int schema = static_cast<int>(kSchemaVersion);
  const struct {
    const char* figure;
    int schema;
    std::string why;
  } journals[] = {
      {"unit", schema - 1,
       "was written with schema_version " + std::to_string(schema - 1) + ", this build emits " +
           std::to_string(schema)},
      {"other", schema, "belongs to campaign 'other', not 'unit'"},
      {nullptr, 0, "has no valid header"},
  };
  for (const auto& c : journals) {
    if (c.figure != nullptr) {
      make_journal(c.figure, c.schema);
    } else {
      spit(journal, "not a journal\n");
    }
    const std::string before = slurp(journal);
    Options opt;
    opt.json_path = json;
    opt.resume_path = journal;
    EXPECT_EXIT(Campaign(opt, "unit"), ::testing::ExitedWithCode(kExitUsage), c.why);
    EXPECT_EQ(slurp(journal), before) << c.why;
    EXPECT_FALSE(exists(json)) << c.why;
    EXPECT_FALSE(exists(json + ".tmp")) << c.why;
    EXPECT_FALSE(exists(json + ".timing.tmp")) << c.why;
  }
  std::remove(journal.c_str());

  // Paths that cannot be created. The streams that could be staged
  // before the refusal are deleted again.
  Options checkpoint;
  checkpoint.json_path = json;
  checkpoint.checkpoint_path = missing + ".ckpt";
  Options json_out;
  json_out.json_path = missing + ".jsonl";
  Options metrics;
  metrics.json_path = json;
  metrics.metrics_path = missing + "_metrics.jsonl";
  Options trace;
  trace.json_path = json;
  trace.trace_path = missing + "_trace.jsonl";
  Options worker;
  worker.json_path = json;
  worker.worker = true;
  worker.n_workers = 2;
  const struct {
    const Options* opt;
    const char* why;
  } paths[] = {
      {&checkpoint, "cannot create"},
      {&json_out, "cannot open .*x.jsonl.tmp for writing"},
      {&metrics, "cannot open .*x_metrics.jsonl.tmp for writing"},
      {&trace, "cannot open .*x_trace.jsonl.tmp for writing"},
      {&worker, "worker mode requires --checkpoint/--resume"},
  };
  for (const auto& c : paths) {
    EXPECT_EXIT(Campaign(*c.opt, "unit"), ::testing::ExitedWithCode(kExitUsage), c.why);
    EXPECT_FALSE(exists(json)) << c.why;
    EXPECT_FALSE(exists(json + ".tmp")) << c.why;
    EXPECT_FALSE(exists(json + ".timing.tmp")) << c.why;
  }
}

}  // namespace
}  // namespace bhss::bench
