/// \file test_cli_e2e.cpp
/// \brief End-to-end tests of the efd_cli binary: the full operator
/// workflow (generate -> train -> recognize -> stats -> coverage ->
/// evaluate) through the real executable, exercising argument parsing,
/// CSV and dictionary persistence across process boundaries.

#include <gtest/gtest.h>

#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace {

#ifndef EFD_CLI_PATH
#error "EFD_CLI_PATH must be defined by the build"
#endif

std::string cli() { return EFD_CLI_PATH; }

std::string temp_path(const std::string& name) {
  // Discovered tests run as concurrent processes; pid-suffixed paths keep
  // their scratch files disjoint.
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

/// Runs a command, captures stdout, returns (exit code, output).
std::pair<int, std::string> run(const std::string& command_line) {
  const std::string out_file = temp_path("cli_stdout.txt");
  const std::string full = command_line + " > " + out_file + " 2>&1";
  const int status = std::system(full.c_str());
  std::ifstream in(out_file);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(out_file.c_str());
  return {status, buffer.str()};
}

class CliWorkflow : public ::testing::Test {
 protected:
  // Each discovered test runs in its own process, so the suite setup
  // performs the full generate + train pipeline every time; individual
  // tests then verify one aspect each.
  static void SetUpTestSuite() {
    data_path_ = new std::string(temp_path("cli_history.csv"));
    dict_path_ = new std::string(temp_path("cli_apps.efd"));
    const auto [gen_status, gen_output] =
        run(cli() + " generate --out " + *data_path_ +
            " --repetitions 4 --no-large --seed 42");
    ASSERT_EQ(gen_status, 0) << gen_output;
    train_output_ = new std::string();
    const auto [train_status, train_output] =
        run(cli() + " train --data " + *data_path_ + " --out " + *dict_path_);
    ASSERT_EQ(train_status, 0) << train_output;
    *train_output_ = train_output;
  }

  static void TearDownTestSuite() {
    std::remove(data_path_->c_str());
    std::remove(dict_path_->c_str());
    delete data_path_;
    delete dict_path_;
    delete train_output_;
  }

  static std::string* data_path_;
  static std::string* dict_path_;
  static std::string* train_output_;
};

std::string* CliWorkflow::data_path_ = nullptr;
std::string* CliWorkflow::dict_path_ = nullptr;
std::string* CliWorkflow::train_output_ = nullptr;

TEST_F(CliWorkflow, Step1GenerateWroteDataset) {
  std::ifstream in(*data_path_);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header.substr(0, 12), "execution_id");
}

TEST_F(CliWorkflow, Step2TrainSelectsDepthAndSaves) {
  EXPECT_NE(train_output_->find("depth 3"), std::string::npos)
      << *train_output_;
  EXPECT_NE(train_output_->find("selected by inner CV"), std::string::npos);
  std::ifstream dict(*dict_path_);
  EXPECT_TRUE(dict.good());
}

TEST_F(CliWorkflow, Step3RecognizeIsPerfectOnTrainingCorpus) {
  const auto [status, output] = run(cli() + " recognize --data " + *data_path_ +
                                    " --dict " + *dict_path_);
  ASSERT_EQ(status, 0) << output;
  // 11 apps x 3 inputs x 4 repetitions, all recognized.
  EXPECT_NE(output.find("132/132 correct"), std::string::npos) << output;
}

TEST_F(CliWorkflow, Step4StatsReportExclusiveness) {
  const auto [status, output] = run(cli() + " stats --dict " + *dict_path_);
  ASSERT_EQ(status, 0) << output;
  EXPECT_NE(output.find("rounding depth: 3"), std::string::npos);
  EXPECT_NE(output.find("keys:"), std::string::npos);
}

TEST_F(CliWorkflow, Step5CoverageIsFull) {
  const auto [status, output] = run(cli() + " coverage --data " + *data_path_ +
                                    " --dict " + *dict_path_);
  ASSERT_EQ(status, 0) << output;
  EXPECT_NE(output.find("mean match fraction 1.000"), std::string::npos)
      << output;
}

TEST_F(CliWorkflow, Step6EvaluateRunsAnExperiment) {
  const auto [status, output] =
      run(cli() + " evaluate --data " + *data_path_ +
          " --experiment normal-fold --folds 4");
  ASSERT_EQ(status, 0) << output;
  EXPECT_NE(output.find("normal fold: mean macro F"), std::string::npos);
}

TEST_F(CliWorkflow, Step7ServeAndReplayOverLocalhostTcp) {
  // The network ingestion acceptance path: `serve` the trained
  // dictionary on an ephemeral port, `replay` the training corpus over
  // localhost TCP, and require exactly the verdicts the in-process
  // paths produce (Step3's recognize reports the same 132/132; the
  // byte-level run_concurrent_jobs parity is asserted in test_ingest).
  const std::string serve_out = temp_path("cli_serve_out.txt");
  const std::string pid_file = temp_path("cli_serve_pid.txt");
  const std::string command = cli() + " serve --dict " + *dict_path_ +
                              " --max-jobs 132 --quiet > " + serve_out +
                              " 2>&1 & echo $! > " + pid_file;
  ASSERT_EQ(std::system(command.c_str()), 0);

  // Whatever happens below (including ASSERT aborts), the background
  // server must not outlive the test.
  struct ServeGuard {
    std::string pid_file;
    ~ServeGuard() {
      std::ifstream in(pid_file);
      long pid = 0;
      if (in >> pid; pid > 1) ::kill(static_cast<pid_t>(pid), SIGTERM);
      std::remove(pid_file.c_str());
    }
  } guard{pid_file};

  // Wait for the server to announce its port.
  int port = 0;
  for (int attempt = 0; attempt < 100 && port == 0; ++attempt) {
    ::usleep(100 * 1000);
    std::ifstream in(serve_out);
    std::string line;
    while (std::getline(in, line)) {
      const auto at = line.find("listening on port ");
      if (at != std::string::npos) {
        port = std::atoi(line.c_str() + at + 18);
        break;
      }
    }
  }
  ASSERT_GT(port, 0) << "serve never announced a port";

  const auto [status, output] =
      run(cli() + " replay --data " + *data_path_ + " --port " +
          std::to_string(port));
  ASSERT_EQ(status, 0) << output;
  EXPECT_NE(output.find("132/132 correct"), std::string::npos) << output;
  EXPECT_NE(output.find("132 recognized as known applications"),
            std::string::npos)
      << output;

  // serve exits after --max-jobs verdicts; its summary must agree.
  std::string serve_log;
  for (int attempt = 0; attempt < 100; ++attempt) {
    std::ifstream in(serve_out);
    std::stringstream buffer;
    buffer << in.rdbuf();
    serve_log = buffer.str();
    if (serve_log.find("served 132 verdicts") != std::string::npos) break;
    ::usleep(100 * 1000);
  }
  EXPECT_NE(serve_log.find("served 132 verdicts"), std::string::npos)
      << serve_log;
  std::remove(serve_out.c_str());
}

TEST_F(CliWorkflow, UnknownCommandFails) {
  const auto [status, output] = run(cli() + " frobnicate");
  EXPECT_NE(status, 0);
}

TEST_F(CliWorkflow, MissingArgumentsFail) {
  EXPECT_NE(run(cli() + " train").first, 0);
  EXPECT_NE(run(cli() + " recognize --data " + *data_path_).first, 0);
}

TEST_F(CliWorkflow, ServeRejectsRemovedAndOutOfRangeFlags) {
  // Every command names its options, so a removed or misspelt flag fails
  // before serve binds anything. `timeout` bounds a regression that
  // would otherwise start serving and never exit.
  const std::string serve =
      "timeout 20 " + cli() + " serve --dict " + *dict_path_ + " --port 0 ";
  const auto [workers_status, workers_output] = run(serve + "--workers 2");
  EXPECT_NE(workers_status, 0);
  EXPECT_NE(workers_output.find("unknown option --workers for serve"),
            std::string::npos)
      << workers_output;

  const auto [bogus_status, bogus_output] = run(serve + "--bogus-flag 1");
  EXPECT_NE(bogus_status, 0);
  EXPECT_NE(bogus_output.find("unknown option --bogus-flag for serve"),
            std::string::npos)
      << bogus_output;

  const auto [queue_status, queue_output] = run(serve + "--queue-capacity -1");
  EXPECT_NE(queue_status, 0);
  EXPECT_NE(queue_output.find("--queue-capacity must be >= 1"),
            std::string::npos)
      << queue_output;

  const auto [ttl_status, ttl_output] = run(serve + "--ttl-seconds 0");
  EXPECT_NE(ttl_status, 0);
  EXPECT_NE(ttl_output.find("--ttl-seconds must be >= 1"), std::string::npos)
      << ttl_output;
}

TEST_F(CliWorkflow, RemovedFlagsFail) {
  // A removed flag must fail, not be silently ignored. The Prometheus
  // text lives at serve --http's GET /metrics, so `stats --prometheus`
  // must not print the flat scrape with exit 0; `recognize --verbose`
  // never changed the output. The option check runs before any
  // connection or file read, so no server or data is needed.
  for (const auto& [command, flag] :
       {std::pair<std::string, std::string>{"stats --port 1", "prometheus"},
        {"recognize --data none.csv --dict none.efd", "verbose"}}) {
    const auto [status, output] =
        run("timeout 20 " + cli() + " " + command + " --" + flag);
    EXPECT_NE(status, 0) << command;
    const std::string verb = command.substr(0, command.find(' '));
    EXPECT_NE(output.find("unknown option --" + flag + " for " + verb),
              std::string::npos)
        << output;
  }
}

TEST_F(CliWorkflow, MissingFileReportsError) {
  const auto [status, output] =
      run(cli() + " stats --dict /no/such/file.efd");
  EXPECT_NE(status, 0);
  EXPECT_NE(output.find("error:"), std::string::npos);
}

}  // namespace
