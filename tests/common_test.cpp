// Unit tests for sap::common (error handling, logging, table rendering, and
// the annotated locking primitives).
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/mutex.hpp"
#include "common/stopwatch.hpp"
#include "common/table.hpp"

namespace {

TEST(Error, RequireThrowsWithLocation) {
  try {
    SAP_REQUIRE(false, "boom");
    FAIL() << "SAP_REQUIRE(false) must throw";
  } catch (const sap::Error& e) {
    // The message alone; the throw site is where(), for logs.
    EXPECT_STREQ(e.what(), "boom");
    EXPECT_NE(std::string(e.where().file_name()).find("common_test.cpp"), std::string::npos);
    EXPECT_GT(e.where().line(), 0u);
  }
}

TEST(Error, LogLineCarriesTheThrowSite) {
  try {
    SAP_REQUIRE(false, "boom");
    FAIL() << "SAP_REQUIRE(false) must throw";
  } catch (const sap::Error& e) {
    const std::string line = sap::with_throw_site(e);
    EXPECT_EQ(line.rfind("boom [", 0), 0u) << line;
    EXPECT_NE(line.find("common_test.cpp:" + std::to_string(e.where().line()) + "]"),
              std::string::npos)
        << line;
  }
}

TEST(Error, RequirePassesOnTrue) {
  EXPECT_NO_THROW(SAP_REQUIRE(1 + 1 == 2, "never"));
}

TEST(Error, FailAlwaysThrows) {
  EXPECT_THROW(SAP_FAIL("unconditional"), sap::Error);
}

TEST(Error, IsRuntimeError) {
  EXPECT_THROW(SAP_FAIL("x"), std::runtime_error);
}

TEST(Logging, LevelRoundTrip) {
  const auto prev = sap::log::level();
  sap::log::set_level(sap::log::Level::kDebug);
  EXPECT_EQ(sap::log::level(), sap::log::Level::kDebug);
  sap::log::set_level(prev);
}

TEST(Logging, SuppressedBelowThresholdDoesNotCrash) {
  const auto prev = sap::log::level();
  sap::log::set_level(sap::log::Level::kOff);
  sap::log::error("must be swallowed");
  sap::log::debug("must be swallowed");
  sap::log::set_level(prev);
}

TEST(Stopwatch, MeasuresNonNegativeMonotonicTime) {
  sap::Stopwatch sw;
  const double a = sw.seconds();
  const double b = sw.seconds();
  EXPECT_GE(a, 0.0);
  EXPECT_GE(b, a);
  sw.reset();
  EXPECT_GE(sw.millis(), 0.0);
}

TEST(Table, RendersHeaderAndRows) {
  sap::Table t({"name", "value"});
  t.add_row({"alpha", "1.25"});
  t.add_row({"beta", "-3.5"});
  const std::string out = t.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("-3.5"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, NumericColumnsRightAligned) {
  sap::Table t({"v"});
  t.add_row({"1.0"});
  t.add_row({"10.0"});
  const std::string out = t.str();
  // "1.0" padded to the width of "10.0" → leading space.
  EXPECT_NE(out.find(" 1.0"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  sap::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), sap::Error);
}

TEST(Table, EmptyHeaderThrows) {
  EXPECT_THROW(sap::Table t({}), sap::Error);
}

TEST(Table, NumFormatsFixedPrecision) {
  EXPECT_EQ(sap::Table::num(1.23456, 2), "1.23");
  EXPECT_EQ(sap::Table::num(-0.5, 3), "-0.500");
  EXPECT_EQ(sap::Table::num(2.0, 0), "2");
}

// ---- annotated locking primitives (common/mutex.hpp) ---------------------
//
// Regression coverage for the std::mutex → sap::Mutex conversion: the
// wrappers must preserve exclusion, the unlock()/lock() hand-off cycle the
// worker loops rely on, and wait_until's timeout contract (false exactly on
// deadline expiry) that the TCP handshake/receive deadline loops depend on.

TEST(Mutex, ExcludesConcurrentIncrements) {
  sap::Mutex mu;
  int counter = 0;
  std::vector<std::thread> threads;
  threads.reserve(4);
  for (int t = 0; t < 4; ++t)
    threads.emplace_back([&] {
      for (int i = 0; i < 10000; ++i) {
        sap::MutexLock lock(mu);
        ++counter;
      }
    });
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter, 40000);
}

TEST(Mutex, TryLockReportsContention) {
  sap::Mutex mu;
  {
    sap::MutexLock lock(mu);
    EXPECT_FALSE(mu.try_lock());  // held by `lock`
  }
  ASSERT_TRUE(mu.try_lock());  // free again after the guard released
  mu.unlock();                 // sap-lint: allow(raii-locking) -- releasing the try_lock taken one line up to probe availability
}

TEST(MutexLock, UnlockRelockCycleKeepsExclusion) {
  // The worker-loop hand-off pattern: release around the work item, then
  // re-acquire. After lock() the guard must hold exclusion again.
  sap::Mutex mu;
  sap::MutexLock lock(mu);
  lock.unlock();
  {
    sap::MutexLock other(mu);  // acquirable while released
  }
  lock.lock();
  EXPECT_FALSE(mu.try_lock());  // re-held: others are excluded again
}

TEST(CondVar, WaitWakesOnNotify) {
  sap::Mutex mu;
  sap::CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    sap::MutexLock lock(mu);
    ready = true;
    cv.notify_one();
  });
  {
    sap::MutexLock lock(mu);
    while (!ready) cv.wait(lock);
    EXPECT_TRUE(ready);
  }
  producer.join();
}

TEST(CondVar, WaitUntilReturnsFalseOnExpiry) {
  sap::Mutex mu;
  sap::CondVar cv;
  sap::MutexLock lock(mu);
  const auto deadline = sap::deadline_after_ms(20);
  bool awake = true;
  // Nobody notifies: the loop must terminate via the false return, exactly
  // the give-up path of the transport deadline loops.
  while (awake) awake = cv.wait_until(lock, deadline);
  EXPECT_FALSE(awake);
  EXPECT_GE(std::chrono::steady_clock::now(), deadline);
}

TEST(CondVar, WaitUntilDeliversBeforeDeadline) {
  sap::Mutex mu;
  sap::CondVar cv;
  bool ready = false;
  std::thread producer([&] {
    sap::MutexLock lock(mu);
    ready = true;
    cv.notify_all();
  });
  bool timed_out = false;
  {
    sap::MutexLock lock(mu);
    const auto deadline = sap::deadline_after_ms(60000);  // far future
    bool awake = true;
    while (awake && !ready) awake = cv.wait_until(lock, deadline);
    timed_out = !awake;
    EXPECT_TRUE(ready);
  }
  EXPECT_FALSE(timed_out);
  producer.join();
}

TEST(Deadline, IsInTheFutureByTheRequestedAmount) {
  const auto before = std::chrono::steady_clock::now();
  const auto dl = sap::deadline_after_ms(1000);
  EXPECT_GE(dl - before, std::chrono::milliseconds(999));
}

}  // namespace
