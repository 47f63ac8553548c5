#include "serving/cluster/shard_layout.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/check.h"
#include "util/logging.h"

namespace nmcdr {
namespace cluster {
namespace {

/// Minimal cursor over the layout's JSON subset (objects, arrays of ints,
/// string values, int values) — hand-rolled so the serving layer stays
/// dependency-free, strict so a truncated or hand-mangled layout file is
/// rejected rather than half-read.
struct Cursor {
  const std::string& s;
  size_t i = 0;
  std::string err;

  bool Fail(const std::string& message) {
    if (err.empty()) {
      std::ostringstream out;
      out << "ShardLayout: " << message << " at offset " << i;
      err = out.str();
    }
    return false;
  }
  void SkipWs() {
    while (i < s.size() && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' ||
                            s[i] == '\r')) {
      ++i;
    }
  }
  bool Consume(char c) {
    SkipWs();
    if (i >= s.size() || s[i] != c) {
      return Fail(std::string("expected '") + c + "'");
    }
    ++i;
    return true;
  }
  bool Peek(char c) {
    SkipWs();
    return i < s.size() && s[i] == c;
  }
  bool ParseString(std::string* out) {
    if (!Consume('"')) return false;
    out->clear();
    while (i < s.size() && s[i] != '"') {
      if (s[i] == '\\') return Fail("escapes are not supported");
      out->push_back(s[i++]);
    }
    return Consume('"');
  }
  bool ParseInt(int* out) {
    SkipWs();
    bool negative = false;
    if (i < s.size() && s[i] == '-') {
      negative = true;
      ++i;
    }
    if (i >= s.size() || s[i] < '0' || s[i] > '9') {
      return Fail("expected an integer");
    }
    int64_t value = 0;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') {
      value = value * 10 + (s[i] - '0');
      if (value > (1ll << 31)) return Fail("integer out of range");
      ++i;
    }
    *out = static_cast<int>(negative ? -value : value);
    return true;
  }
  bool ParseIntArray(std::vector<int>* out) {
    if (!Consume('[')) return false;
    out->clear();
    if (Peek(']')) return Consume(']');
    for (;;) {
      int value = 0;
      if (!ParseInt(&value)) return false;
      // NMCDR_LINT_ALLOW(reserve-before-growth): parse loop with no length
      // prefix in the wire format; element count is unknowable up front.
      out->push_back(value);
      if (Peek(']')) return Consume(']');
      if (!Consume(',')) return false;
    }
  }
};

void AppendIntArray(const std::vector<int>& values, std::ostringstream* out) {
  *out << '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) *out << ", ";
    *out << values[i];
  }
  *out << ']';
}

/// Structural check shared by Parse and Validate: size num_shards + 1,
/// starts at 0, monotone non-decreasing.
bool SplitsWellFormed(const std::vector<int>& splits, int num_shards,
                      int domain, const char* kind, std::string* error) {
  std::ostringstream out;
  if (static_cast<int>(splits.size()) != num_shards + 1) {
    out << "domain " << domain << ": " << kind << " has " << splits.size()
        << " entries, want num_shards + 1 = " << num_shards + 1;
  } else if (splits.front() != 0) {
    out << "domain " << domain << ": " << kind << " must start at 0, got "
        << splits.front();
  } else if (!std::is_sorted(splits.begin(), splits.end())) {
    out << "domain " << domain << ": " << kind
        << " must be monotone non-decreasing";
  } else {
    return true;
  }
  if (error != nullptr) *error = "ShardLayout: " + out.str();
  return false;
}

std::vector<int> UniformSplits(int count, int num_shards) {
  std::vector<int> splits(num_shards + 1, 0);
  const int base = count / num_shards;
  const int extra = count % num_shards;
  for (int s = 0; s < num_shards; ++s) {
    splits[s + 1] = splits[s] + base + (s < extra ? 1 : 0);
  }
  return splits;
}

/// Shard owning `row`: the last shard s with splits[s] <= row (skipping
/// empty ranges so the owner actually contains the row).
int ShardOf(const std::vector<int>& splits, int row) {
  NMCDR_DCHECK_GE(row, 0);
  NMCDR_DCHECK_LT(row, splits.back());
  const auto it = std::upper_bound(splits.begin(), splits.end(), row);
  return static_cast<int>(it - splits.begin()) - 1;
}

}  // namespace

ShardLayout ShardLayout::Uniform(const ModelSnapshot& snapshot,
                                 int num_shards) {
  NMCDR_CHECK_GT(num_shards, 0);
  ShardLayout layout;
  layout.num_shards = num_shards;
  layout.domains.reserve(snapshot.num_domains());
  for (int d = 0; d < snapshot.num_domains(); ++d) {
    DomainSplits splits;
    splits.user_splits =
        UniformSplits(snapshot.domain(d).num_users(), num_shards);
    splits.item_splits =
        UniformSplits(snapshot.domain(d).num_items(), num_shards);
    layout.domains.push_back(std::move(splits));
  }
  return layout;
}

bool ShardLayout::Validate(const ModelSnapshot& snapshot,
                           std::string* error) const {
  std::ostringstream out;
  if (num_shards <= 0) {
    if (error != nullptr) *error = "ShardLayout: num_shards must be positive";
    return false;
  }
  if (static_cast<int>(domains.size()) != snapshot.num_domains()) {
    out << "ShardLayout: layout has " << domains.size()
        << " domains, snapshot has " << snapshot.num_domains();
    if (error != nullptr) *error = out.str();
    return false;
  }
  for (int d = 0; d < snapshot.num_domains(); ++d) {
    if (!SplitsWellFormed(domains[d].user_splits, num_shards, d,
                          "user_splits", error) ||
        !SplitsWellFormed(domains[d].item_splits, num_shards, d,
                          "item_splits", error)) {
      return false;
    }
    if (domains[d].user_splits.back() != snapshot.domain(d).num_users()) {
      out << "ShardLayout: domain " << d << ": user_splits end at "
          << domains[d].user_splits.back() << ", snapshot has "
          << snapshot.domain(d).num_users() << " users";
      if (error != nullptr) *error = out.str();
      return false;
    }
    if (domains[d].item_splits.back() != snapshot.domain(d).num_items()) {
      out << "ShardLayout: domain " << d << ": item_splits end at "
          << domains[d].item_splits.back() << ", snapshot has "
          << snapshot.domain(d).num_items() << " items";
      if (error != nullptr) *error = out.str();
      return false;
    }
  }
  return true;
}

int ShardLayout::UserShard(int d, int row) const {
  NMCDR_DCHECK_GE(d, 0);
  NMCDR_DCHECK_LT(d, static_cast<int>(domains.size()));
  return ShardOf(domains[d].user_splits, row);
}

int ShardLayout::ItemShard(int d, int row) const {
  NMCDR_DCHECK_GE(d, 0);
  NMCDR_DCHECK_LT(d, static_cast<int>(domains.size()));
  return ShardOf(domains[d].item_splits, row);
}

bool ShardLayout::Equals(const ShardLayout& other) const {
  if (num_shards != other.num_shards ||
      domains.size() != other.domains.size()) {
    return false;
  }
  for (size_t d = 0; d < domains.size(); ++d) {
    if (domains[d].user_splits != other.domains[d].user_splits ||
        domains[d].item_splits != other.domains[d].item_splits) {
      return false;
    }
  }
  return true;
}

std::string ShardLayout::ToJson() const {
  std::ostringstream out;
  out << "{\n  \"schema\": \"" << kShardLayoutSchema << "\",\n"
      << "  \"num_shards\": " << num_shards << ",\n  \"domains\": [";
  for (size_t d = 0; d < domains.size(); ++d) {
    if (d > 0) out << ',';
    out << "\n    {\"user_splits\": ";
    AppendIntArray(domains[d].user_splits, &out);
    out << ", \"item_splits\": ";
    AppendIntArray(domains[d].item_splits, &out);
    out << '}';
  }
  out << "\n  ]\n}\n";
  return out.str();
}

bool ShardLayout::Parse(const std::string& json, ShardLayout* out,
                        std::string* error) {
  Cursor cursor{json, /*i=*/0, /*err=*/{}};
  ShardLayout parsed;
  parsed.num_shards = 0;
  bool saw_schema = false, saw_shards = false, saw_domains = false;

  bool ok = cursor.Consume('{');
  while (ok && !cursor.Peek('}')) {
    std::string key;
    ok = cursor.ParseString(&key) && cursor.Consume(':');
    if (!ok) break;
    if (key == "schema") {
      std::string schema;
      ok = cursor.ParseString(&schema);
      if (ok && schema != kShardLayoutSchema) {
        ok = cursor.Fail("unknown schema \"" + schema + "\"");
      }
      saw_schema = ok;
    } else if (key == "num_shards") {
      ok = cursor.ParseInt(&parsed.num_shards);
      saw_shards = ok;
    } else if (key == "domains") {
      ok = cursor.Consume('[');
      while (ok && !cursor.Peek(']')) {
        DomainSplits splits;
        bool saw_users = false, saw_items = false;
        ok = cursor.Consume('{');
        while (ok && !cursor.Peek('}')) {
          std::string field;
          ok = cursor.ParseString(&field) && cursor.Consume(':');
          if (!ok) break;
          if (field == "user_splits") {
            ok = cursor.ParseIntArray(&splits.user_splits);
            saw_users = ok;
          } else if (field == "item_splits") {
            ok = cursor.ParseIntArray(&splits.item_splits);
            saw_items = ok;
          } else {
            ok = cursor.Fail("unknown domain key \"" + field + "\"");
          }
          if (ok && !cursor.Peek('}')) ok = cursor.Consume(',');
        }
        ok = ok && cursor.Consume('}');
        if (ok && (!saw_users || !saw_items)) {
          ok = cursor.Fail("domain entry missing user_splits/item_splits");
        }
        if (ok) parsed.domains.push_back(std::move(splits));
        if (ok && !cursor.Peek(']')) ok = cursor.Consume(',');
      }
      ok = ok && cursor.Consume(']');
      saw_domains = ok;
    } else {
      ok = cursor.Fail("unknown key \"" + key + "\"");
    }
    if (ok && !cursor.Peek('}')) ok = cursor.Consume(',');
  }
  ok = ok && cursor.Consume('}');
  if (ok) {
    cursor.SkipWs();
    if (cursor.i != json.size()) ok = cursor.Fail("trailing characters");
  }
  if (ok && (!saw_schema || !saw_shards || !saw_domains)) {
    ok = cursor.Fail("missing schema/num_shards/domains");
  }
  if (ok && parsed.num_shards <= 0) {
    ok = cursor.Fail("num_shards must be positive");
  }
  for (size_t d = 0; ok && d < parsed.domains.size(); ++d) {
    std::string splits_error;
    if (!SplitsWellFormed(parsed.domains[d].user_splits, parsed.num_shards,
                          static_cast<int>(d), "user_splits",
                          &splits_error) ||
        !SplitsWellFormed(parsed.domains[d].item_splits, parsed.num_shards,
                          static_cast<int>(d), "item_splits",
                          &splits_error)) {
      ok = cursor.Fail(splits_error);
    }
  }
  if (!ok) {
    if (error != nullptr) *error = cursor.err;
    return false;
  }
  *out = std::move(parsed);
  return true;
}

bool ShardLayout::Save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    LOG_ERROR << "ShardLayout::Save: cannot open " << path;
    return false;
  }
  out << ToJson();
  out.flush();
  if (!out) {
    LOG_ERROR << "ShardLayout::Save: write to " << path << " failed";
    return false;
  }
  return true;
}

bool ShardLayout::Load(const std::string& path, ShardLayout* out,
                       std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    if (error != nullptr) *error = "ShardLayout: cannot open " + path;
    LOG_ERROR << "ShardLayout::Load: cannot open " << path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  std::string parse_error;
  if (!Parse(buffer.str(), out, &parse_error)) {
    if (error != nullptr) *error = parse_error;
    LOG_ERROR << "ShardLayout::Load: " << path << ": " << parse_error;
    return false;
  }
  return true;
}

}  // namespace cluster
}  // namespace nmcdr
