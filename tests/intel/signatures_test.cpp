#include "intel/signatures.h"

#include <gtest/gtest.h>

#include <string>

namespace shadowprobe::intel {
namespace {

// Parameters hold std::string, not const char*: gtest prints a char pointer
// with its address, which would put an ASLR-dependent value into the test
// names that gtest_discover_tests registers.
class PayloadClassification
    : public ::testing::TestWithParam<std::pair<std::string, PayloadClass>> {};

TEST_P(PayloadClassification, ClassifiesTarget) {
  SignatureDb db = SignatureDb::standard();
  auto [target, expected] = GetParam();
  EXPECT_EQ(db.classify_target(target), expected) << target;
}

INSTANTIATE_TEST_SUITE_P(
    Targets, PayloadClassification,
    ::testing::Values(
        std::make_pair("/", PayloadClass::kBenignFetch),
        std::make_pair("/index.html", PayloadClass::kBenignFetch),
        std::make_pair("/favicon.ico", PayloadClass::kBenignFetch),
        std::make_pair("/robots.txt", PayloadClass::kBenignFetch),
        std::make_pair("/admin", PayloadClass::kPathEnumeration),
        std::make_pair("/wp-login.php", PayloadClass::kPathEnumeration),
        std::make_pair("/.git/config", PayloadClass::kPathEnumeration),
        std::make_pair("/.env", PayloadClass::kPathEnumeration),
        std::make_pair("/backup.zip", PayloadClass::kPathEnumeration),
        std::make_pair("/ADMIN", PayloadClass::kPathEnumeration),  // case-folded
        std::make_pair("/../../etc/passwd", PayloadClass::kExploitAttempt),
        std::make_pair("/?q=%27%20union%20select", PayloadClass::kOther),
        std::make_pair("/?q=' or 1=1", PayloadClass::kExploitAttempt),
        std::make_pair("/x?p=${jndi:ldap://evil}", PayloadClass::kExploitAttempt),
        std::make_pair("/random-page", PayloadClass::kOther),
        std::make_pair("/blog/post/42", PayloadClass::kOther)));

TEST(SignatureDb, ExploitInBodyDetected) {
  SignatureDb db = SignatureDb::standard();
  EXPECT_EQ(db.classify_target("/upload", "data=<script>alert(1)</script>"),
            PayloadClass::kExploitAttempt);
}

TEST(SignatureDb, ClassifyParsedRequest) {
  SignatureDb db = SignatureDb::standard();
  net::HttpRequest request;
  request.target = "/phpmyadmin/";
  EXPECT_EQ(db.classify(request), PayloadClass::kPathEnumeration);
}

TEST(SignatureDb, ExploitBeatsEnumerationWhenBothMatch) {
  SignatureDb db = SignatureDb::standard();
  EXPECT_EQ(db.classify_target("/admin/../../etc/passwd"), PayloadClass::kExploitAttempt);
}

TEST(SignatureDb, CustomEntriesExtendTheDatabase) {
  SignatureDb db;
  db.add_enumeration_path("/custom-scan");
  db.add_exploit_signature("EVIL-MARKER");
  EXPECT_EQ(db.classify_target("/custom-scan/deep"), PayloadClass::kPathEnumeration);
  EXPECT_EQ(db.classify_target("/x?p=evil-marker"), PayloadClass::kExploitAttempt);
  EXPECT_EQ(db.classify_target("/admin"), PayloadClass::kOther);  // not in custom db
}

TEST(SignatureDb, EnumerationWordlistNonEmpty) {
  SignatureDb db = SignatureDb::standard();
  EXPECT_GE(db.enumeration_paths().size(), 20u);
}

TEST(PayloadClassName, AllValues) {
  EXPECT_EQ(payload_class_name(PayloadClass::kBenignFetch), "benign-fetch");
  EXPECT_EQ(payload_class_name(PayloadClass::kPathEnumeration), "path-enumeration");
  EXPECT_EQ(payload_class_name(PayloadClass::kExploitAttempt), "exploit-attempt");
  EXPECT_EQ(payload_class_name(PayloadClass::kOther), "other");
}

}  // namespace
}  // namespace shadowprobe::intel
