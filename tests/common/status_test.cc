#include "common/status.h"

#include <string>

#include "common/result.h"
#include "gtest/gtest.h"

namespace dgt {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.message(), "");
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, OkFactory) {
  EXPECT_TRUE(Status::OK().ok());
}

TEST(StatusTest, ErrorFactoriesCarryCodeAndMessage) {
  struct Case {
    Status status;
    StatusCode code;
    std::string name;
  };
  const Case cases[] = {
      {Status::InvalidArgument("a"), StatusCode::kInvalidArgument,
       "InvalidArgument"},
      {Status::NotFound("b"), StatusCode::kNotFound, "NotFound"},
      {Status::OutOfRange("c"), StatusCode::kOutOfRange, "OutOfRange"},
      {Status::FailedPrecondition("d"), StatusCode::kFailedPrecondition,
       "FailedPrecondition"},
      {Status::AlreadyExists("e"), StatusCode::kAlreadyExists,
       "AlreadyExists"},
      {Status::Internal("f"), StatusCode::kInternal, "Internal"},
      {Status::IoError("g"), StatusCode::kIoError, "IoError"},
  };
  for (const auto& c : cases) {
    EXPECT_FALSE(c.status.ok());
    EXPECT_EQ(c.status.code(), c.code);
    EXPECT_EQ(std::string(StatusCodeToString(c.code)), c.name);
    EXPECT_NE(c.status.ToString().find(c.name), std::string::npos);
    EXPECT_NE(c.status.ToString().find(c.status.message()),
              std::string::npos);
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Internal("x"));
  EXPECT_EQ(Status::OK(), Status());
}

TEST(StatusTest, CopyAndMovePreserveState) {
  Status s = Status::Internal("boom");
  Status copy = s;
  EXPECT_EQ(copy, s);
  Status moved = std::move(copy);
  EXPECT_EQ(moved, s);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Chain(int x) {
  DGT_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Chain(1).ok());
  EXPECT_EQ(Chain(-1).code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(*r, 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("gone");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<int> r = 7;
  EXPECT_EQ(r.value_or(-1), 7);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  ASSERT_TRUE(r.ok());
  std::string s = std::move(r).value();
  EXPECT_EQ(s, "hello");
}

TEST(ResultTest, ArrowOperator) {
  Result<std::string> r = std::string("abc");
  EXPECT_EQ(r->size(), 3u);
}

Result<int> MakeEven(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x;
}

Result<int> DoubleEven(int x) {
  DGT_ASSIGN_OR_RETURN(int v, MakeEven(x));
  return v * 2;
}

TEST(ResultTest, AssignOrReturnMacro) {
  Result<int> ok = DoubleEven(4);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 8);
  Result<int> err = DoubleEven(3);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, CopyableWhenValueIs) {
  Result<std::vector<int>> r = std::vector<int>{1, 2, 3};
  Result<std::vector<int>> copy = r;
  ASSERT_TRUE(copy.ok());
  EXPECT_EQ(copy.value().size(), 3u);
  EXPECT_EQ(r.value().size(), 3u);
}

}  // namespace
}  // namespace dgt
