// GetEnvInt64 / GetEnvChoice / ResolveSeqBackend: every environment
// knob goes through one validated parser — 0, negatives, garbage, and
// out-of-range values must be rejected with an error naming the
// variable, not silently coerced (DESIGN.md §14).

#include "common/env.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "cep/seq_backend.h"

namespace eslev {
namespace {

// Scoped setter so a failing assertion cannot leak a variable into later
// tests (the environment is process-global).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (value == nullptr) {
      ::unsetenv(name);
    } else {
      ::setenv(name, value, /*overwrite=*/1);
    }
  }
  ~ScopedEnv() { ::unsetenv(name_); }

 private:
  const char* name_;
};

constexpr char kVar[] = "ESLEV_ENV_TEST_VAR";

TEST(GetEnvInt64Test, UnsetReturnsNullopt) {
  ScopedEnv env(kVar, nullptr);
  auto r = GetEnvInt64(kVar, 1, 100);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->has_value());
}

TEST(GetEnvInt64Test, EmptyReturnsNullopt) {
  ScopedEnv env(kVar, "");
  auto r = GetEnvInt64(kVar, 1, 100);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_FALSE(r->has_value());
}

TEST(GetEnvInt64Test, ParsesValidValue) {
  ScopedEnv env(kVar, "64");
  auto r = GetEnvInt64(kVar, 1, 100);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_TRUE(r->has_value());
  EXPECT_EQ(**r, 64);
}

TEST(GetEnvInt64Test, AcceptsRangeEndpoints) {
  {
    ScopedEnv env(kVar, "1");
    auto r = GetEnvInt64(kVar, 1, 100);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(**r, 1);
  }
  {
    ScopedEnv env(kVar, "100");
    auto r = GetEnvInt64(kVar, 1, 100);
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_EQ(**r, 100);
  }
}

TEST(GetEnvInt64Test, RejectsGarbage) {
  for (const char* bad : {"abc", "12abc", "1.5", " 7 ", "0x10", "++3"}) {
    ScopedEnv env(kVar, bad);
    auto r = GetEnvInt64(kVar, 1, 100);
    EXPECT_FALSE(r.ok()) << "accepted '" << bad << "'";
    EXPECT_NE(r.status().message().find(kVar), std::string::npos)
        << "error does not name the variable: " << r.status();
  }
}

TEST(GetEnvInt64Test, RejectsOutOfRange) {
  for (const char* bad : {"0", "-1", "101", "99999999999999999999"}) {
    ScopedEnv env(kVar, bad);
    auto r = GetEnvInt64(kVar, 1, 100);
    EXPECT_FALSE(r.ok()) << "accepted '" << bad << "'";
  }
}

TEST(GetEnvChoiceTest, UnsetAndEmptyReturnNullopt) {
  for (const char* value : {static_cast<const char*>(nullptr), ""}) {
    ScopedEnv env(kVar, value);
    auto r = GetEnvChoice(kVar, {"alpha", "beta"});
    ASSERT_TRUE(r.ok()) << r.status();
    EXPECT_FALSE(r->has_value());
  }
}

TEST(GetEnvChoiceTest, MatchesCaseInsensitively) {
  for (const char* value : {"beta", "BETA", "Beta"}) {
    ScopedEnv env(kVar, value);
    auto r = GetEnvChoice(kVar, {"alpha", "beta"});
    ASSERT_TRUE(r.ok()) << r.status();
    ASSERT_TRUE(r->has_value());
    EXPECT_EQ(**r, 1u);
  }
}

TEST(GetEnvChoiceTest, RejectsUnknownNamingVariableAndChoices) {
  ScopedEnv env(kVar, "gamma");
  auto r = GetEnvChoice(kVar, {"alpha", "beta"});
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find(kVar), std::string::npos)
      << r.status();
  EXPECT_NE(r.status().message().find("'alpha'"), std::string::npos)
      << r.status();
  EXPECT_NE(r.status().message().find("'beta'"), std::string::npos)
      << r.status();
}

TEST(ResolveSeqBackendTest, ConfiguredValueWithoutOverride) {
  ScopedEnv env(kSeqBackendEnvVar, nullptr);
  auto r = ResolveSeqBackend(SeqBackend::kNfa);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, SeqBackend::kNfa);
}

TEST(ResolveSeqBackendTest, EnvOverridesConfigured) {
  ScopedEnv env(kSeqBackendEnvVar, "nfa");
  auto r = ResolveSeqBackend(SeqBackend::kHistory);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, SeqBackend::kNfa);

  ScopedEnv env2(kSeqBackendEnvVar, "HISTORY");
  r = ResolveSeqBackend(SeqBackend::kNfa);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(*r, SeqBackend::kHistory);
}

TEST(ResolveSeqBackendTest, RejectsUnknownBackend) {
  ScopedEnv env(kSeqBackendEnvVar, "dfa");
  auto r = ResolveSeqBackend(SeqBackend::kHistory);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find(kSeqBackendEnvVar), std::string::npos)
      << r.status();
}

TEST(ParseSeqBackendTest, RoundTripsSpellings) {
  auto h = ParseSeqBackend("history");
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(*h, SeqBackend::kHistory);
  EXPECT_STREQ(SeqBackendToString(*h), "history");
  auto n = ParseSeqBackend("NFA");
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, SeqBackend::kNfa);
  EXPECT_STREQ(SeqBackendToString(*n), "nfa");
  EXPECT_FALSE(ParseSeqBackend("regex").ok());
}

}  // namespace
}  // namespace eslev
