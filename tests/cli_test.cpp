// sap_cli process-level tests.
//
//   * `jobs --json` emits a machine-readable job/param schema — parsed here
//     with a real (small) JSON parser, not string matching;
//   * the cross-process topology: one `serve --listen` miner daemon process
//     and k `party --connect` processes over loopback TCP, all spawned as
//     genuine OS processes, with the daemon's pooled result asserted
//     bit-identical (digest + multiset digest) to the same logical session
//     run in-process through SapSession;
//   * every usage error of every command exits 2 before any work, with
//     nothing on stdout and one `error:` line naming the argument and no
//     source location;
//   * the README build section's in-process invocations run, and the
//     protocol run's phase log and wire cost hold at any LocalOptimize
//     thread count.
//
// SAP_CLI_PATH is injected by CMake as the built binary's absolute path.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "data/normalize.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "net/remote.hpp"
#include "protocol/jobs.hpp"
#include "protocol/session.hpp"

namespace {

using sap::data::Dataset;

// ---- a minimal JSON parser (objects/arrays/strings/numbers/bools) --------

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;
  std::vector<Json> items;
  std::map<std::string, Json> fields;

  [[nodiscard]] const Json& at(const std::string& key) const {
    const auto it = fields.find(key);
    if (it == fields.end()) throw std::runtime_error("missing key " + key);
    return it->second;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) throw std::runtime_error("trailing JSON garbage");
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' ||
                                   text_[pos_] == '\t' || text_[pos_] == '\r'))
      ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) throw std::runtime_error("unexpected end of JSON");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) throw std::runtime_error(std::string("expected '") + c + "'");
    ++pos_;
  }

  Json parse_value() {
    skip_ws();
    switch (peek()) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': {
        Json v;
        v.kind = Json::Kind::kString;
        v.text = parse_string();
        return v;
      }
      case 't':
      case 'f': {
        Json v;
        v.kind = Json::Kind::kBool;
        v.boolean = peek() == 't';
        const std::string word = v.boolean ? "true" : "false";
        if (text_.compare(pos_, word.size(), word) != 0)
          throw std::runtime_error("bad literal");
        pos_ += word.size();
        return v;
      }
      default: return parse_number();
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (peek() != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        c = static_cast<char>(peek());
        ++pos_;
        if (c != '"' && c != '\\') throw std::runtime_error("unsupported escape");
      }
      out.push_back(c);
    }
    ++pos_;
    return out;
  }

  Json parse_number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '-' ||
            text_[pos_] == '+' || text_[pos_] == '.' || text_[pos_] == 'e' ||
            text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) throw std::runtime_error("bad JSON number");
    Json v;
    v.kind = Json::Kind::kNumber;
    v.number = std::stod(text_.substr(start, pos_ - start));
    return v;
  }

  Json parse_array() {
    expect('[');
    Json v;
    v.kind = Json::Kind::kArray;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    for (;;) {
      v.items.push_back(parse_value());
      skip_ws();
      if (peek() == ']') {
        ++pos_;
        return v;
      }
      expect(',');
    }
  }

  Json parse_object() {
    expect('{');
    Json v;
    v.kind = Json::Kind::kObject;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    for (;;) {
      skip_ws();
      const std::string key = parse_string();
      skip_ws();
      expect(':');
      v.fields[key] = parse_value();
      skip_ws();
      if (peek() == '}') {
        ++pos_;
        return v;
      }
      expect(',');
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Run a command, capture all stdout/stderr, return the exit status.
int run_command(const std::string& command, std::string& output) {
  output.clear();
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (!pipe) return -1;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe)) output += buf;
  const int status = pclose(pipe);
  return status;
}

/// Run `sap_cli <args>` with stdout and stderr kept apart; returns the exit
/// status, or -1 when the process did not exit normally.
int run_cli(const std::string& args, std::string& out, std::string& err) {
  const std::string err_path =
      ::testing::TempDir() + "sap_cli_stderr_" + std::to_string(getpid()) + ".txt";
  out.clear();
  FILE* pipe = popen((std::string(SAP_CLI_PATH) + " " + args + " 2>" + err_path).c_str(), "r");
  if (!pipe) return -1;
  char buf[4096];
  while (std::fgets(buf, sizeof buf, pipe)) out += buf;
  const int status = pclose(pipe);
  std::stringstream text;
  text << std::ifstream(err_path).rdbuf();
  err = text.str();
  std::remove(err_path.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// ---- jobs --json ---------------------------------------------------------

TEST(CliJobsJson, SchemaParsesAndCoversBuiltins) {
  const auto registry = sap::proto::JobRegistry::builtins();
  const Json root = JsonParser(sap::proto::schema_json(registry)).parse();
  const Json& jobs = root.at("jobs");
  ASSERT_EQ(jobs.kind, Json::Kind::kArray);
  ASSERT_EQ(jobs.items.size(), registry.names().size());

  std::map<std::string, const Json*> by_name;
  for (const Json& job : jobs.items) {
    EXPECT_EQ(job.kind, Json::Kind::kObject);
    const std::string kind = job.at("kind").text;
    EXPECT_TRUE(kind == "trainable" || kind == "structural") << kind;
    EXPECT_FALSE(job.at("summary").text.empty());
    for (const Json& param : job.at("params").items) {
      EXPECT_EQ(param.at("default").kind, Json::Kind::kNumber);
      EXPECT_LE(param.at("min").number, param.at("default").number);
      EXPECT_LE(param.at("default").number, param.at("max").number);
      EXPECT_EQ(param.at("serve_only").kind, Json::Kind::kBool);
    }
    by_name[job.at("name").text] = &job;
  }
  // Spot-check one trainable job against the registry's declared schema.
  ASSERT_TRUE(by_name.count("nb-train-accuracy"));
  const Json& nb = *by_name["nb-train-accuracy"];
  EXPECT_EQ(nb.at("kind").text, "trainable");
  ASSERT_EQ(nb.at("params").items.size(), 2u);
  EXPECT_EQ(nb.at("params").items[0].at("name").text, "var-smoothing");
  EXPECT_DOUBLE_EQ(nb.at("params").items[0].at("default").number, 1e-9);
  EXPECT_TRUE(nb.at("params").items[1].at("serve_only").boolean);
}

TEST(CliJobsJson, CliEmitsTheLibrarySchema) {
  std::string output;
  const int status = run_command(std::string(SAP_CLI_PATH) + " jobs --json", output);
  EXPECT_EQ(status, 0);
  EXPECT_EQ(output, sap::proto::schema_json(sap::proto::JobRegistry::builtins()));
  // And it parses standalone.
  EXPECT_NO_THROW((void)JsonParser(output).parse());
}

// ---- cross-process loopback topology ------------------------------------

TEST(CliCrossProcess, DaemonAndPartiesMatchInProcessSession) {
  constexpr std::uint64_t kSeed = 7;
  constexpr std::size_t kParties = 3;
  constexpr std::uint64_t kBatches = 2, kBatchRecords = 10;

  // Reference: the identical logical session in THIS process (SapSession).
  // Data prep and session options come from the SAME library helpers
  // `sap_cli party`/`contribute` call — one copy, no drift.
  //
  // nb-train-accuracy report per pool epoch: a party's wire request races
  // with the other parties' contributions, so it may legitimately serve at
  // any epoch — AND an intermediate epoch's pool depends on which batch
  // arrived first (the final pool is canonical, the prefixes are not). So
  // the reference replays every contribution arrival order and a wire
  // (epoch, report) pair must match one of them.
  std::map<unsigned long long, std::set<std::string>> ref_job_at_epoch;
  unsigned long long ref_records = 0, ref_multiset = 0;
  std::vector<std::uint64_t> order(kBatches);
  for (std::uint64_t b = 0; b < kBatches; ++b) order[b] = b;
  do {
    auto workload =
        sap::data::make_stream_workload("Iris", kParties, kBatches, kBatchRecords, kSeed);
    const Dataset& stream = workload.stream;
    sap::proto::SapSession reference(std::move(workload.shards),
                                     sap::net::serving_session_options(0.1, kSeed));
    reference.run_until(sap::proto::SessionPhase::kMine);
    const auto note_epoch = [&] {
      const auto response = reference.engine().run({"nb-train-accuracy", {}});
      char text[64];
      std::snprintf(text, sizeof text, "%.6f", response.values[0]);
      ref_job_at_epoch[response.pool_epoch].insert(text);
    };
    note_epoch();
    for (const std::uint64_t b : order) {
      (void)reference.contribute(b % kParties,
                                 stream.slice(b * kBatchRecords, (b + 1) * kBatchRecords));
      note_epoch();
    }
    const auto ref_view = reference.engine().pool_view();
    ref_records = ref_view.data->size();
    ref_multiset = sap::net::dataset_multiset_digest(*ref_view.data);
  } while (std::next_permutation(order.begin(), order.end()));

  // Daemon process on an ephemeral port; parse the bound port from stdout.
  const std::string cli = SAP_CLI_PATH;
  FILE* daemon = popen((cli + " serve --listen 127.0.0.1:0 --parties 3 --seed 7"
                              " --deadline-ms 60000 2>&1")
                           .c_str(),
                       "r");
  ASSERT_NE(daemon, nullptr);
  std::string daemon_output;
  char line[4096];
  int port = 0;
  while (std::fgets(line, sizeof line, daemon)) {
    daemon_output += line;
    if (std::sscanf(line, "listening on 127.0.0.1:%d", &port) == 1) break;
  }
  ASSERT_GT(port, 0) << daemon_output;

  // k genuine party processes.
  std::vector<std::thread> threads;
  std::vector<std::string> party_output(kParties);
  std::vector<int> party_status(kParties, -1);
  for (std::size_t i = 0; i < kParties; ++i) {
    threads.emplace_back([&, i] {
      const std::string cmd = cli + " party Iris 3 0.1 7 --connect 127.0.0.1:" +
                              std::to_string(port) + " --index " + std::to_string(i) +
                              " --batches 2 --batch-records 10 --job nb-train-accuracy" +
                              " --deadline-ms 60000";
      party_status[i] = run_command(cmd, party_output[i]);
    });
  }
  for (auto& t : threads) t.join();

  // Drain the daemon to completion.
  while (std::fgets(line, sizeof line, daemon)) daemon_output += line;
  const int daemon_status = pclose(daemon);
  EXPECT_EQ(daemon_status, 0) << daemon_output;
  for (std::size_t i = 0; i < kParties; ++i) {
    EXPECT_EQ(party_status[i], 0) << "party " << i << ":\n" << party_output[i];
    EXPECT_NE(party_output[i].find("done"), std::string::npos) << party_output[i];
  }

  // The daemon's final pool equals the in-process reference: same record
  // count, same records (multiset digest — concurrent contributors make the
  // append order scheduling-dependent).
  unsigned long long records = 0, epoch = 0, digest = 0, multiset = 0;
  const auto served_at = daemon_output.find("served: ");
  ASSERT_NE(served_at, std::string::npos) << daemon_output;
  ASSERT_EQ(std::sscanf(daemon_output.c_str() + served_at,
                        "served: %llu records at epoch %llu, digest %llu, multiset %llu",
                        &records, &epoch, &digest, &multiset),
            4)
      << daemon_output;
  EXPECT_EQ(records, ref_records);
  EXPECT_EQ(epoch, 1 + kBatches);
  EXPECT_EQ(multiset, ref_multiset);

  // Wire-served job reports match in-process serving at whatever epoch the
  // request landed on.
  for (std::size_t i = 0; i < kParties; ++i) {
    const auto at = party_output[i].find("job nb-train-accuracy -> [");
    ASSERT_NE(at, std::string::npos) << party_output[i];
    char value[64] = {};
    unsigned long long job_epoch = 0;
    ASSERT_EQ(std::sscanf(party_output[i].c_str() + at,
                          "job nb-train-accuracy -> [%63[^]]] (epoch %llu)", value,
                          &job_epoch),
              2)
        << party_output[i];
    ASSERT_TRUE(ref_job_at_epoch.count(job_epoch))
        << "party " << i << " served at unknown epoch " << job_epoch;
    EXPECT_TRUE(ref_job_at_epoch[job_epoch].count(value))
        << "party " << i << " at epoch " << job_epoch << " served " << value
        << ", not an in-process report at that epoch";
  }
}

// ---- usage errors ----------------------------------------------------------

TEST(CliUsage, EveryUsageErrorExitsTwoBeforeAnyWork) {
  struct Row {
    const char* args;
    int status;
    const char* names;  ///< what the first stderr line names (exit 0: a stdout line)
  };
  const Row rows[] = {
      // Top level.
      {"", 2, "command"},
      {"nosuch", 2, "nosuch"},
      // datasets / jobs.
      {"datasets extra", 2, "extra"},
      {"datasets --json", 2, "--json"},
      {"jobs extra", 2, "extra"},
      {"jobs --jsn", 2, "--jsn"},
      // generate.
      {"generate NoSuch out.csv", 2, "NoSuch"},
      {"generate Iris", 2, "out.csv"},
      {"generate Iris out.csv x", 2, "seed"},
      {"generate Iris out.csv 1 extra", 2, "extra"},
      {"generate Iris out.csv --seed 2", 2, "--seed"},
      // perturb.
      {"perturb -x in.csv out.csv", 2, "-x"},
      {"perturb in.csv", 2, "out.csv"},
      {"perturb in.csv out.csv abc", 2, "sigma"},
      {"perturb in.csv out.csv -0.5", 2, "sigma"},
      {"perturb in.csv out.csv 0.1 1 extra", 2, "extra"},
      {"perturb in.csv out.csv --optimize-threads", 2, "--optimize-threads"},
      {"perturb in.csv out.csv --optimize-threads 257", 2, "--optimize-threads"},
      // attack.
      {"attack a.csv", 2, "perturbed.csv"},
      {"attack a.csv b.csv x", 2, "known_m"},
      {"attack a.csv b.csv 4 extra", 2, "extra"},
      {"attack a.csv b.csv --known 4", 2, "--known"},
      // protocol.
      {"protocol", 2, "dataset"},
      {"protocol NoSuch", 2, "NoSuch"},
      {"protocol Iris x", 2, "parties"},
      {"protocol Iris 2", 2, "parties"},
      {"protocol Iris 4 -0.1", 2, "sigma"},
      {"protocol Iris 4 0.1 1 extra", 2, "extra"},
      {"protocol Iris --bogus", 2, "--bogus"},
      {"protocol Iris --job", 2, "--job"},
      {"protocol Iris --job nosuch-job", 2, "nosuch-job"},
      {"protocol Iris --job knn-train-accuracy:k=0", 2, "--job"},
      {"protocol Iris --optimize-threads x", 2, "--optimize-threads"},
      // serve, in process.
      {"serve", 2, "dataset"},
      {"serve NoSuch", 2, "NoSuch"},
      {"serve Iris 4 0.1 1 extra", 2, "extra"},
      {"serve Iris --no-cache", 2, "--no-cache"},
      {"serve Iris --requests", 2, "--requests"},
      {"serve Iris --requests 0", 2, "--requests"},
      {"serve Iris --threads x", 2, "--threads"},
      {"serve Iris --ingest-records 0", 2, "--ingest-records"},
      {"serve Iris --job knn-train-accuracy:k", 2, "--job"},
      {"serve Iris --job nosuch-job", 2, "nosuch-job"},
      // serve --listen, the miner daemon.
      {"serve --listen", 2, "--listen"},
      {"serve --listen nohost", 2, "--listen"},
      {"serve --listen 127.0.0.1:0", 2, "--parties"},
      {"serve --listen 127.0.0.1:0 --parties 2", 2, "--parties"},
      {"serve --listen 127.0.0.1:0 --parties 3 Iris", 2, "Iris"},
      {"serve --listen 127.0.0.1:0 --parties 3 --no-cache", 2, "--no-cache"},
      {"serve --listen 127.0.0.1:0 --parties 3 --seed x", 2, "--seed"},
      {"serve --listen 127.0.0.1:0 --parties 3 --reactor-loops 65", 2, "--reactor-loops"},
      {"serve --listen 127.0.0.1:0 --parties 3 --deadline-ms 0", 2, "--deadline-ms"},
      {"serve --listen 127.0.0.1:0 --parties 3 --shards 2", 2, "--shard-index"},
      {"serve --listen 127.0.0.1:0 --parties 3 --shards 2 --shard-index 2", 2,
       "--shard-index"},
      {"serve --listen 127.0.0.1:0 --parties 3 --shards 2 --shard-index 0 --replicas 3", 2,
       "--replicas"},
      {"serve --listen 127.0.0.1:0 --parties 3 --resync ,", 2, "--resync"},
      {"serve --listen 127.0.0.1:0 --parties 3 --fault bogus=1", 2, "--fault"},
      // router.
      {"router --miners 127.0.0.1:1 --parties 3 --shards 3 --serve-ms 1", 2, "--shards"},
      {"router --parties 3", 2, "--miners"},
      {"router --miners nohost --parties 3", 2, "--miners"},
      {"router --miners 127.0.0.1:1", 2, "--parties"},
      {"router --miners 127.0.0.1:1 --parties 3 extra", 2, "extra"},
      {"router --miners 127.0.0.1:1 --parties 3 --listen", 2, "--listen"},
      {"router --miners 127.0.0.1:1 --parties 3 --replicas 2", 2, "--replicas"},
      {"router --miners 127.0.0.1:1 --parties 3 --serve-ms 0", 2, "--serve-ms"},
      {"router --miners 127.0.0.1:1 --parties 3 --fault bogus=1", 2, "--fault"},
      // stats.
      {"stats", 2, "endpoint"},
      {"stats nohost", 2, "endpoint"},
      {"stats 127.0.0.1:1 127.0.0.1:2", 2, "127.0.0.1:2"},
      {"stats 127.0.0.1:1 --bogus", 2, "--bogus"},
      {"stats 127.0.0.1:1 --parties 2", 2, "--parties"},
      {"stats 127.0.0.1:1 --seed", 2, "--seed"},
      // party.
      {"party Iris 3 0.1 1 --index 0", 2, "--connect"},
      {"party Iris 3 0.1 1 --connect nohost --index 0", 2, "--connect"},
      {"party Iris 3 0.1 1 --connect 127.0.0.1:1", 2, "--index"},
      {"party Iris 3 0.1 1 --connect 127.0.0.1:1 --index 3", 2, "--index"},
      {"party NoSuch 3 0.1 1 --connect 127.0.0.1:1 --index 0", 2, "NoSuch"},
      {"party Iris 2 0.1 1 --connect 127.0.0.1:1 --index 0", 2, "parties"},
      {"party Iris 3 0.1 1 extra --connect 127.0.0.1:1 --index 0", 2, "extra"},
      {"party Iris 3 0.1 1 --connect 127.0.0.1:1 --index 0 --bogus", 2, "--bogus"},
      {"party Iris 3 0.1 1 --connect 127.0.0.1:1 --index 0 --deadline-ms", 2,
       "--deadline-ms"},
      {"party Iris 3 0.1 1 --connect 127.0.0.1:1 --index 0 --batch-records 0", 2,
       "--batch-records"},
      {"party Iris 3 0.1 1 --connect 127.0.0.1:1 --index 0 --job nosuch-job", 2,
       "nosuch-job"},
      // contribute.
      {"contribute", 2, "dataset"},
      {"contribute NoSuch", 2, "NoSuch"},
      {"contribute Iris 3 0.1 1 extra", 2, "extra"},
      {"contribute Iris 3 0.1 1 --bogus", 2, "--bogus"},
      {"contribute Iris 3 0.1 1 --job", 2, "--job"},
      {"contribute Iris 3 0.1 1 --job nosuch-job", 2, "nosuch-job"},
      {"contribute Iris 3 0.1 1 --batches x", 2, "--batches"},
      {"contribute Iris 3 0.1 1 --batches 100", 2, "--batches"},
      {"contribute Iris 3 0.1 1 --batch-records 0", 2, "--batch-records"},
      // minparties.
      {"minparties 0.95", 2, "opt_rate"},
      {"minparties x 0.9", 2, "s0"},
      {"minparties 2 0.5", 2, "s0"},
      {"minparties 0.95 0", 2, "opt_rate"},
      {"minparties 0.95 0.9 1", 2, "'1'"},
      {"minparties 0.95 0.9 --json", 2, "--json"},
      // One grammar for --job everywhere, and a party that only mines has a
      // contributing twin.
      {"protocol Iris 4 0.1 1 --job knn-train-accuracy:k=3", 0, "job knn-train-accuracy"},
      {"contribute Iris 3 0.1 1 --batches 0", 0, "fits: 1 full"},
      // A runtime error exits 1 with the same one line, and like every
      // line above it names no source file: the throw site is for logs.
      {"perturb no-such-input.csv out.csv", 1, "no-such-input.csv"},
  };
  for (const Row& row : rows) {
    std::string out, err;
    const int status = run_cli(row.args, out, err);
    EXPECT_EQ(status, row.status) << "sap_cli " << row.args << "\n" << out << err;
    if (row.status == 0) {
      EXPECT_NE(out.find(row.names), std::string::npos) << "sap_cli " << row.args << "\n" << out;
      continue;
    }
    EXPECT_EQ(out, "") << "sap_cli " << row.args;
    const std::string first = err.substr(0, err.find('\n'));
    EXPECT_EQ(first.rfind("error: ", 0), 0u) << "sap_cli " << row.args << "\n" << err;
    EXPECT_NE(first.find(row.names), std::string::npos)
        << "sap_cli " << row.args << ": '" << first << "' does not name " << row.names;
    EXPECT_EQ(first.find(".cpp:"), std::string::npos) << "sap_cli " << row.args << ": " << first;
  }
}

// ---- the README and the verify notes ----------------------------------------

TEST(CliDocs, ReadmeInvocationsRunAndTheProtocolTraceHolds) {
  // The in-process invocations of the README's build section.
  for (const char* args : {
           "--help",
           "protocol Iris 5 0.1 1 --job svm-train-accuracy --phases",
           "serve Diabetes 5 0.1 1 --requests 256 --threads 8 "
           "--job knn-train-accuracy:k=3,eval-records=64",
           "serve Iris 4 0.1 1 --requests 128 --ingest-every 32 --ingest-records 16",
           "contribute Iris 4 0.1 1 --batches 4 --batch-records 16 --job nb-train-accuracy",
           "jobs --json",
       }) {
    std::string out, err;
    EXPECT_EQ(run_cli(args, out, err), 0) << "sap_cli " << args << "\n" << err;
    EXPECT_FALSE(out.empty()) << "sap_cli " << args;
  }

  // The exchange's pinned trace: cumulative messages per phase and the total
  // wire cost, the same at any LocalOptimize thread count. Only the phase
  // timings may differ between the two runs.
  std::string reference;
  for (const char* threads : {"0", "4"}) {
    const std::string args =
        std::string("protocol Iris 4 0.1 1 --job record-count --phases --optimize-threads ") +
        threads;
    std::string out, err;
    ASSERT_EQ(run_cli(args, out, err), 0) << "sap_cli " << args << "\n" << err;
    std::vector<std::size_t> msgs;
    std::string timeless;
    std::istringstream lines(out);
    for (std::string line; std::getline(lines, line);) {
      char phase[64];
      double ms = 0.0, kib = 0.0;
      std::size_t count = 0;
      if (std::sscanf(line.c_str(), " %63s %lf ms %zu msgs %lf KiB", phase, &ms, &count, &kib) ==
          4) {
        msgs.push_back(count);
        line = phase + line.substr(line.find(" ms ") + 3);  // the timing dropped
      }
      timeless += line + '\n';
    }
    EXPECT_EQ(msgs, (std::vector<std::size_t>{0, 3, 6, 14, 21})) << out;
    EXPECT_NE(out.find("\nmessages=21, ciphertext=10.1 KiB\n"), std::string::npos) << out;
    if (reference.empty())
      reference = timeless;
    else
      EXPECT_EQ(timeless, reference) << "--optimize-threads " << threads;
  }
}

}  // namespace
