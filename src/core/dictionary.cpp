#include "core/dictionary.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <numeric>
#include <optional>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "util/string_utils.hpp"
#include "util/thread_pool.hpp"

namespace efd::core {

bool DictionaryEntry::contains(const std::string& label) const {
  // No run holds kNoLabelId, the id of a label never interned.
  const std::span<const std::uint32_t> ids = label_ids();
  return std::find(ids.begin(), ids.end(), labels_->id_of(label)) != ids.end();
}

std::uint64_t DictionaryEntry::total_count() const noexcept {
  const std::span<const std::uint32_t> observed = counts();
  return std::accumulate(observed.begin(), observed.end(), std::uint64_t{0});
}

void Dictionary::insert(const FingerprintKey& key, const std::string& label,
                        std::uint32_t count) {
  if (count == 0) return;
  // Only an unpublished dictionary is ever mutated (epochs are const), so
  // nothing probes the table while it grows.
  index_.add_label(index_.find_or_add(key), labels_.intern(label), count);
}

std::optional<DictionaryEntry> Dictionary::lookup(
    const FingerprintKey& key) const {
  const DictionaryIndex::Entry* row = index_.find(key);
  if (row == nullptr) return std::nullopt;
  return DictionaryEntry(index_, labels_, *row);
}

std::size_t Dictionary::application_order(const std::string& application) const {
  std::uint32_t id = 0;
  while (id < labels_.application_count() &&
         labels_.application_name(id) != application) {
    ++id;
  }
  return id;  // unknowns rank last
}

std::vector<std::string> Dictionary::applications_in_order() const {
  std::vector<std::string> ordered;
  for (std::uint32_t id = 0; id < labels_.application_count(); ++id) {
    ordered.push_back(labels_.application_name(id));
  }
  return ordered;
}

std::size_t Dictionary::prune_rare(std::uint32_t min_observations) {
  // The kept rows, re-appended in their order into a fresh table; label
  // ids stay valid because the label table is untouched.
  DictionaryIndex kept;
  for (std::size_t i = 0; i < size(); ++i) {
    const DictionaryEntry row = entry(i);
    if (row.total_count() < min_observations) continue;
    const std::uint32_t ordinal = kept.find_or_add(row.key());
    for (std::size_t l = 0; l < row.size(); ++l) {
      kept.add_label(ordinal, row.label_ids()[l], row.counts()[l]);
    }
  }
  const std::size_t removed = size() - kept.key_count();
  index_ = std::move(kept);
  return removed;
}

void Dictionary::merge(const Dictionary& other) {
  const auto same_config = [&] {
    const FingerprintConfig& a = config_;
    const FingerprintConfig& b = other.config_;
    return a.metrics == b.metrics && a.intervals == b.intervals &&
           a.rounding_depth == b.rounding_depth &&
           a.combine_metrics == b.combine_metrics;
  };
  if (!same_config()) {
    throw std::invalid_argument("cannot merge dictionaries with different configs");
  }
  // Intern the source's labels in its own id order first: its new
  // applications then rank after ours in its order, whatever the entry
  // order below.
  std::vector<std::uint32_t> ids_here(other.labels_.label_count());
  for (std::uint32_t id = 0; id < ids_here.size(); ++id) {
    ids_here[id] = labels_.intern(other.labels_.label_name(id));
  }
  for (const DictionaryIndex::Entry& row : other.index_.entries_) {
    const auto ids = other.index_.label_ids(row);
    const auto counts = other.index_.counts(row);
    std::optional<std::uint32_t> ordinal;  // insert() skips zero counts
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (counts[i] == 0) continue;
      if (!ordinal) ordinal = index_.find_or_add(other.index_.key_of(row));
      index_.add_label(*ordinal, ids_here[ids[i]], counts[i]);
    }
  }
}

DictionaryStats Dictionary::stats() const {
  DictionaryStats stats;
  stats.key_count = size();
  std::size_t label_total = 0;
  for (std::size_t i = 0; i < size(); ++i) {
    const DictionaryEntry row = entry(i);
    const auto ids = row.label_ids();
    const bool exclusive = std::all_of(ids.begin(), ids.end(), [&](std::uint32_t id) {
      return labels_.application_of(id) == labels_.application_of(ids.front());
    });
    ++(exclusive ? stats.exclusive_keys : stats.colliding_keys);
    label_total += row.size();
    stats.total_observations += row.total_count();
  }
  stats.mean_labels_per_key =
      empty() ? 0.0
              : static_cast<double>(label_total) / static_cast<double>(size());
  return stats;
}

std::vector<std::uint32_t> Dictionary::sorted_order() const {
  // Table-4 key ordering (DictionaryIndex::key_less), total over keys.
  const std::span<const DictionaryIndex::Entry> rows = index_.entries_;
  std::vector<std::uint32_t> order(rows.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](std::uint32_t a, std::uint32_t b) {
    return index_.key_less(rows[a], rows[b]);
  });
  return order;
}

std::vector<FingerprintKey> Dictionary::keys_for_label(
    const std::string& label) const {
  std::vector<FingerprintKey> keys;
  for (const std::uint32_t ordinal : sorted_order()) {
    const DictionaryEntry row = entry(ordinal);
    if (row.contains(label)) keys.push_back(row.key());
  }
  return keys;
}

namespace {

constexpr std::string_view kFormatTag = "EFD-DICT-V1";

/// util::parse_int narrowed to T: nullopt when the text is not an integer
/// or its value does not fit T, where a static_cast would wrap or
/// truncate (a label count of 2^32 would become 0).
template <typename T>
std::optional<T> parse_as(std::string_view text) {
  const auto value = util::parse_int(text);
  if (!value || !std::in_range<T>(*value)) return std::nullopt;
  return static_cast<T>(*value);
}

/// The value of an integer token spelled as append_int writes it (plain
/// digits, a '-' only before a non-zero value) when it fits T; nullopt
/// for any other spelling or value. No trim, no from_chars.
template <typename T>
std::optional<T> canonical_int(std::string_view token) noexcept {
  const bool negative = !token.empty() && token.front() == '-';
  const std::string_view digits = token.substr(negative ? 1 : 0);
  // 18 digits cannot overflow the accumulator; no field is that wide.
  if (digits.empty() || digits.size() > 18) return std::nullopt;
  if (digits.front() == '0' && token.size() != 1) return std::nullopt;
  long long value = 0;
  for (const char c : digits) {
    const unsigned digit = static_cast<unsigned char>(c) - unsigned{'0'};
    if (digit > 9) return std::nullopt;
    value = value * 10 + digit;
  }
  if (negative) value = -value;
  if (!std::in_range<T>(value)) return std::nullopt;
  return static_cast<T>(value);
}

/// parse_as<T>, converting a canonical token directly; any other token
/// clears \p canonical and takes today's parse.
template <typename T>
std::optional<T> read_int(std::string_view token, bool& canonical) {
  if (const auto value = canonical_int<T>(token)) return value;
  canonical = false;
  return parse_as<T>(token);
}

/// util::parse_double, certifying the token as dictionary_text does.
std::optional<double> read_mean(std::string_view token, bool& canonical) {
  if (const auto value = dictionary_text::canonical_mean(token)) return value;
  canonical = false;
  return util::parse_double(token);
}

void append_int(std::string& out, long long value) {
  char buffer[24];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, result.ptr);
}

/// util::format_mean's bytes without its snprintf and temporary string:
/// to_chars with general format and precision 10 is printf's %.10g, and
/// the same ".0" rule keeps a decimal point on integral values.
void append_mean(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "nan";
    return;
  }
  char buffer[32];
  const auto result = std::to_chars(buffer, buffer + sizeof(buffer), value,
                                    std::chars_format::general, 10);
  const std::string_view text(buffer, static_cast<std::size_t>(result.ptr - buffer));
  out += text;
  if (text.find_first_of(".e") == std::string_view::npos) out += ".0";
}

/// Calls fn on each \p delimiter-separated token of \p text, empty tokens
/// included (util::split's tokens, without the vector).
template <typename Fn>
void for_each_token(std::string_view text, char delimiter, Fn&& fn) {
  while (true) {
    const std::size_t pos = text.find(delimiter);
    fn(text.substr(0, pos));
    if (pos == std::string_view::npos) return;
    text.remove_prefix(pos + 1);
  }
}

/// Splits \p text into exactly N tokens; false on any other count.
template <std::size_t N>
bool split_exact(std::string_view text, char delimiter,
                 std::array<std::string_view, N>& out) {
  std::size_t count = 0;
  for_each_token(text, delimiter, [&](std::string_view token) {
    if (count < N) out[count] = token;
    ++count;
  });
  return count == N;
}

/// A forward walk over text, one token at a time.
struct Cursor {
  const char* at;
  const char* end;

  /// Sets \p token to the bytes before the first of \p Stops; returns
  /// that byte (now behind the cursor), or '\0' when the text ends first.
  template <char... Stops>
  char next(std::string_view& token) noexcept {
    const char* from = at;
    while (at != end && ((*at != Stops) && ...)) ++at;
    token = {from, static_cast<std::size_t>(at - from)};
    return at == end ? '\0' : *at++;
  }

  /// The canonical_int<T> spelled before \p Stop, stepping past it;
  /// nullopt when the token is not one or another byte ends it.
  template <typename T, char Stop>
  std::optional<T> next_int() noexcept {
    const char* from = at;
    if (at != end && *at == '-') ++at;
    while (at != end && static_cast<unsigned char>(*at - '0') <= 9) ++at;
    if (at == end || *at != Stop) return std::nullopt;
    return canonical_int<T>({from, static_cast<std::size_t>(at++ - from)});
  }
};

[[noreturn]] void fail(const std::string& why) {
  throw std::runtime_error("malformed dictionary: " + why);
}

/// std::getline over a string: yields each '\n'-terminated line (the last
/// line may lack its '\n'). A line ending in '\r' is a CRLF file, which
/// is not EFD-DICT-V1.
class LineReader {
 public:
  explicit LineReader(std::string_view text) : rest_(text) {}

  /// The text not yet returned.
  std::string_view rest() const noexcept { return rest_; }

  bool next(std::string_view& line) {
    if (rest_.empty()) return false;
    const std::size_t newline = rest_.find('\n');
    line = rest_.substr(0, newline);
    rest_.remove_prefix(newline == std::string_view::npos ? rest_.size()
                                                          : newline + 1);
    if (!line.empty() && line.back() == '\r') fail("CRLF line ending");
    return true;
  }

 private:
  std::string_view rest_;
};

/// The header lines save() writes: everything before the first key row.
void append_header(std::string& out, const FingerprintConfig& config,
                   long long keys) {
  out += kFormatTag;
  out += "\nmetrics ";
  out += util::join(config.metrics, ",");
  out += "\nintervals";
  for (const auto& interval : config.intervals) {
    out += ' ';
    append_int(out, interval.begin_seconds);
    out += ':';
    append_int(out, interval.end_seconds);
  }
  out += "\ndepth ";
  append_int(out, config.rounding_depth);
  out += "\ncombine ";
  out += config.combine_metrics ? '1' : '0';
  out += "\nkeys ";
  append_int(out, keys);
  out += '\n';
}

}  // namespace

void Dictionary::save(std::string& out) const {
  const std::vector<std::uint32_t> order = sorted_order();
  // ~40 bytes per row in practice; one reservation covers most of it.
  out.reserve(out.size() + 64 + order.size() * 48);
  append_header(out, config_, static_cast<long long>(order.size()));
  const std::span<const DictionaryIndex::Entry> rows = index_.entries_;
  for (const std::uint32_t ordinal : order) {
    const DictionaryIndex::Entry& row = rows[ordinal];
    out += index_.metric_names_[row.metric_id];
    out += '|';
    append_int(out, row.node_id);
    out += '|';
    append_int(out, row.begin_seconds);
    out += ':';
    append_int(out, row.end_seconds);
    out += '|';
    for (std::uint32_t i = 0; i < row.means_count; ++i) {
      if (i != 0) out += ',';
      append_mean(out, index_.means_[row.means_begin + i]);
    }
    out += '|';
    const std::span<const std::uint32_t> ids = index_.label_ids(row);
    const std::span<const std::uint32_t> counts = index_.counts(row);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      if (i != 0) out += ',';
      out += labels_.label_name(ids[i]);
      out += '=';
      append_int(out, counts[i]);
    }
    out += '\n';
  }
}

void Dictionary::save(std::ostream& out) const {
  std::string text;
  save(text);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
}

void Dictionary::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  save(out);
  if (!out) throw std::runtime_error("write failed: " + path);
}

namespace {

/// What precedes the key rows.
struct Header {
  FingerprintConfig config;
  long long key_count = 0;
  /// The text after the header: the key rows and what follows them.
  std::string_view body;
  /// True when the header is what save() writes for config and count.
  bool canonical = false;
};

Header read_header(std::string_view text) {
  LineReader lines(text);
  std::string_view line;

  if (!lines.next(line) || line != kFormatTag) fail("bad header");

  Header header;
  FingerprintConfig& config = header.config;
  config.intervals.clear();

  if (!lines.next(line) || !util::starts_with(line, "metrics "))
    fail("missing metrics");
  const std::string_view metric_csv = line.substr(8);
  if (!metric_csv.empty()) config.metrics = util::split(metric_csv, ',');

  if (!lines.next(line) || !util::starts_with(line, "intervals"))
    fail("missing intervals");
  for_each_token(line, ' ', [&](std::string_view token) {
    if (token == "intervals" || token.empty()) return;
    std::array<std::string_view, 2> bounds;
    if (!split_exact(token, ':', bounds)) fail("bad interval token");
    const auto begin = parse_as<int>(bounds[0]);
    const auto end = parse_as<int>(bounds[1]);
    if (!begin || !end) fail("bad interval numbers");
    config.intervals.push_back({*begin, *end});
  });

  if (!lines.next(line) || !util::starts_with(line, "depth "))
    fail("missing depth");
  const auto depth = parse_as<int>(line.substr(6));
  if (!depth) fail("bad depth");
  config.rounding_depth = *depth;

  if (!lines.next(line) || !util::starts_with(line, "combine "))
    fail("missing combine flag");
  const std::string_view combine = line.substr(8);
  if (combine != "0" && combine != "1") fail("bad combine flag");
  config.combine_metrics = combine == "1";

  if (!lines.next(line) || !util::starts_with(line, "keys "))
    fail("missing key count");
  const auto key_count = util::parse_int(line.substr(5));
  if (!key_count || *key_count < 0) fail("bad key count");
  header.key_count = *key_count;

  // The header is canonical when it is what save() would write for the
  // parsed config and count (a row merge later makes the count stale).
  header.body = lines.rest();
  std::string written;
  append_header(written, config, *key_count);
  header.canonical = text.substr(0, text.size() - header.body.size()) == written;
  return header;
}

/// Reads rows spelled as save() spells one, each walked once from its
/// first byte to its newline. The key's buffers and the hash state after
/// the metric's bytes carry over to the next row while the metric name
/// repeats; the row's labels are only read, for the caller to add.
class RowReader {
 public:
  /// The row's key but its metric, which only the caller copies in.
  FingerprintKey key;
  std::string_view metric;  ///< the row's metric name, in the text read
  std::uint64_t hash = 0;  ///< DictionaryIndex::hash_key() of the key
  std::vector<std::pair<std::string_view, std::uint32_t>> labels;

  /// Reads the row at the front of \p rest and steps past it; false, with
  /// metric as it was, when the row is not spelled so. \p new_metric is
  /// set when the metric is not the previous row's.
  bool read(std::string_view& rest, bool& new_metric) {
    Cursor at{rest.data(), rest.data() + rest.size()};
    // The previous row's metric name, when it is this row's too, is
    // compared, not scanned (it holds no '|' or newline).
    std::string_view name = metric;
    if (!metric.empty() && rest.size() > metric.size() &&
        rest[metric.size()] == '|' && rest.starts_with(metric)) {
      at.at += metric.size() + 1;
    } else if (at.next<'|', '\n'>(name) != '|') {
      return false;
    }
    const auto node = at.next_int<std::uint32_t, '|'>();
    if (!node) return false;
    const auto begin = at.next_int<int, ':'>();
    if (!begin) return false;
    const auto finish = at.next_int<int, '|'>();
    if (!finish) return false;
    std::string_view field;
    key.rounded_means.clear();
    for (char stop = ','; stop == ',';) {
      stop = at.next<',', '|', '\n'>(field);
      const auto mean = dictionary_text::canonical_mean(field);
      if (!mean || stop == '\n' || stop == '\0') return false;
      key.rounded_means.push_back(*mean);
    }
    labels.clear();
    for (char stop = ','; stop == ',';) {
      std::string_view label;
      if (at.next<'=', ',', '|', '\n'>(label) != '=') return false;
      stop = at.next<',', '|', '\n'>(field);
      const auto count = canonical_int<std::uint32_t>(field);
      if (!count || *count < 1 || stop == '|') return false;
      labels.emplace_back(label, *count);
    }
    rest.remove_prefix(static_cast<std::size_t>(at.at - rest.data()));

    new_metric = name.data() != metric.data();
    if (new_metric) {
      metric = name;
      metric_state_ = FingerprintKeyHash::metric(name);
    }
    key.node_id = *node;
    key.interval = {*begin, *finish};
    hash = DictionaryIndex::spread(FingerprintKeyHash::fields(
        metric_state_, key.node_id, key.interval, key.rounded_means.data(),
        key.rounded_means.size()));
    return true;
  }

 private:
  std::uint64_t metric_state_ = 0;
};

/// The newlines in \p text. A block of at most 255 bytes counts into one
/// byte, a loop the compiler vectorises.
std::size_t count_newlines(std::string_view text) noexcept {
  std::size_t total = 0;
  while (!text.empty()) {
    const std::size_t block = std::min<std::size_t>(text.size(), 255);
    std::uint8_t newlines = 0;
    for (std::size_t i = 0; i < block; ++i) newlines += text[i] == '\n';
    total += newlines;
    text.remove_prefix(block);
  }
  return total;
}

/// The first row start in \p body at or after byte \p at.
std::size_t row_start(std::string_view body, std::size_t at) noexcept {
  if (at == 0 || at >= body.size() || body[at - 1] == '\n') {
    return std::min(at, body.size());
  }
  const std::size_t newline = body.find('\n', at);
  return newline == std::string_view::npos ? body.size() : newline + 1;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

Dictionary Dictionary::load(std::string_view text) {
  bool canonical = false;
  return load(text, canonical);
}

Dictionary Dictionary::load(std::string_view text, bool& canonical) {
  return load_text(text, canonical, std::nullopt, nullptr);
}

Dictionary Dictionary::load_text(std::string_view text, bool& canonical,
                                 std::optional<std::size_t> slices,
                                 std::size_t* slices_read) {
  const auto start = std::chrono::steady_clock::now();
  const Header header = read_header(text);
  canonical = header.canonical;
  // A row is at least 14 bytes ("m|0|0:0|0|a=1\n") and a mean at least
  // 2 ("0,"), so the text bounds how much a hostile header can make this
  // reserve. One label per key is the common shape.
  const std::size_t rows = static_cast<std::size_t>(std::min<long long>(
      header.key_count, static_cast<long long>(text.size() / 14)));

  // Only a text that can be canonical to its last byte is read in
  // slices; a slice's rejection sends it to the rows loop below.
  if (slices_read != nullptr) *slices_read = 1;
  const std::size_t count = slices.value_or(
      dictionary_detail::slice_count(rows, util::hardware_threads()));
  if (canonical && count > 1 && rows > 1 &&
      static_cast<long long>(rows) == header.key_count && text.back() == '\n') {
    Dictionary sliced(header.config);
    if (sliced.read_slices(header.body, rows, count)) {
      if (slices_read != nullptr) *slices_read = std::min(count, rows);
      sliced.index_.build_seconds_ = seconds_since(start);
      return sliced;
    }
  }

  Dictionary dictionary(header.config);
  const FingerprintConfig& config = dictionary.config_;
  DictionaryIndex& index = dictionary.index_;
  index.entries_.reserve(rows);
  index.hashes_.reserve(rows);
  index.means_.reserve(config.combine_metrics
                           ? std::min(rows * config.metrics.size(), text.size() / 2)
                           : rows);
  index.label_ids_.reserve(rows);
  index.counts_.reserve(rows);
  if (rows != 0) index.resize_table(rows);
  // True while every row so far was appended by append_after_last().
  bool increasing = true;
  // find_or_add() with the write path's certificate: save() sorts, so
  // canonical rows arrive each a new key, strictly after the previous
  // row in its order (the sort is then the identity).
  const auto add_key = [&](const FingerprintKey& row_key, std::uint64_t hash) {
    const std::size_t keys_before = index.key_count();
    const std::uint32_t ordinal = index.find_or_add(row_key, hash);
    if (canonical) {
      canonical = index.key_count() != keys_before &&
                  (ordinal == 0 || index.key_less(index.entries_[ordinal - 1],
                                                  index.entries_[ordinal]));
    }
    return ordinal;
  };
  // Rows of one label are common (all of B1's decoys): the previous
  // token's id is reused without hashing the name again.
  std::string label;
  std::uint32_t label_id = kNoLabelId;
  const auto add_label = [&](std::uint32_t ordinal, std::string_view name,
                             std::uint32_t count) {
    if (label_id == kNoLabelId || name != label) {
      label.assign(name);
      label_id = dictionary.labels_.intern(label);
    }
    if (!index.add_label(ordinal, label_id, count)) canonical = false;
  };
  // A row spelled as save() spells one; its metric's id carries over to
  // the next row while the name repeats, and its labels are added once
  // the whole row has passed.
  RowReader reader;
  std::uint32_t metric_id = 0;
  const auto read_row = [&](std::string_view& rest) -> bool {
    bool new_metric = false;
    if (!reader.read(rest, new_metric)) return false;
    if (new_metric) {
      reader.key.metric.assign(reader.metric);
      metric_id = index.metric_id(reader.key.metric);
    }
    // While every row so far was appended in key order (none with a NaN
    // mean: canonical_mean() never returns one), a row that sorts after
    // the last one is new: no probe. Any other row is looked up as
    // insert() would, and certifies as the write path's rows do.
    std::uint32_t ordinal;
    if (increasing && index.append_after_last(reader.key, metric_id, reader.hash)) {
      ordinal = static_cast<std::uint32_t>(index.key_count() - 1);
    } else {
      increasing = false;
      ordinal = add_key(reader.key, reader.hash);
    }
    for (const auto& [name, count] : reader.labels) add_label(ordinal, name, count);
    return true;
  };
  // Any other row, read as its fields split: every spelling util's
  // parsers accept, each rejection with its error text.
  FingerprintKey other_key;
  const auto read_other_row = [&](std::string_view line) {
    std::array<std::string_view, 5> fields;
    if (!split_exact(line, '|', fields)) fail("bad key row");
    other_key.metric.assign(fields[0]);
    const auto node = read_int<std::uint32_t>(fields[1], canonical);
    if (!node) fail("bad node id");
    other_key.node_id = *node;
    std::array<std::string_view, 2> bounds;
    if (!split_exact(fields[2], ':', bounds)) fail("bad key interval");
    const auto ib = read_int<int>(bounds[0], canonical);
    const auto ie = read_int<int>(bounds[1], canonical);
    if (!ib || !ie) fail("bad key interval numbers");
    other_key.interval = {*ib, *ie};
    other_key.rounded_means.clear();
    for_each_token(fields[3], ',', [&](std::string_view mean_text) {
      const auto mean = read_mean(mean_text, canonical);
      if (!mean) fail("bad mean");
      other_key.rounded_means.push_back(*mean);
    });
    const std::uint32_t ordinal =
        add_key(other_key, DictionaryIndex::hash_key(other_key));
    for_each_token(fields[4], ',', [&](std::string_view label_token) {
      const std::size_t eq = label_token.rfind('=');
      if (eq == std::string_view::npos) fail("bad label token");
      const auto count =
          read_int<std::uint32_t>(label_token.substr(eq + 1), canonical);
      if (!count || *count < 1) fail("bad label count");
      add_label(ordinal, label_token.substr(0, eq), *count);
    });
  };
  std::string_view rest = header.body;
  std::string_view line;
  for (long long k = 0; k < header.key_count; ++k) {
    if (rest.empty()) fail("truncated key list");
    if (read_row(rest)) continue;
    // This row is looked up (it may merge into any earlier key), and so
    // is every row after it.
    increasing = false;
    LineReader row(rest);
    row.next(line);
    rest = row.rest();
    read_other_row(line);
  }
  // Blank lines may trail the rows; anything else is not part of the
  // dictionary, and the declared count would silently drop it.
  for (LineReader tail(rest); tail.next(line);) {
    if (!line.empty()) fail("text after the declared key rows");
    canonical = false;
  }
  if (text.back() != '\n') canonical = false;
  index.build_seconds_ = seconds_since(start);
  return dictionary;
}

bool Dictionary::read_slices(std::string_view body, std::size_t rows,
                             std::size_t slices) {
  // A canonical row is one new key with the header's count of means, so
  // its row number alone says where its entry, hash and means go.
  const std::size_t means_per_row =
      config_.combine_metrics ? config_.metrics.size() : 1;
  if (means_per_row == 0 || rows * means_per_row > body.size() / 2) {
    return false;
  }
  struct Slice {
    std::string_view text;  ///< whole rows, newline-terminated
    std::size_t first_row = 0;
    std::size_t rows = 0;
    /// Every row read as canonical, each after the one before it.
    bool read = false;
    /// Metric names and labels by slice-local id, in first-seen order.
    std::vector<std::string_view> metrics;
    std::vector<std::string_view> labels;
    /// The slice's label runs, by slice-local id.
    std::vector<std::uint32_t> label_ids;
    std::vector<std::uint32_t> counts;
  };
  std::vector<Slice> parts(std::min(slices, rows));
  std::size_t from = 0;
  std::size_t row = 0;
  for (std::size_t s = 0; s < parts.size(); ++s) {
    // Equal byte shares, each moved up to the next row start.
    const std::size_t to =
        s + 1 == parts.size()
            ? body.size()
            : row_start(body, std::max(from, body.size() / parts.size() * (s + 1)));
    parts[s].text = body.substr(from, to - from);
    parts[s].first_row = row;
    parts[s].rows = count_newlines(parts[s].text);
    row += parts[s].rows;
    from = to;
  }
  if (row != rows) return false;

  DictionaryIndex& index = index_;
  index.resize_table(rows);
  // Sized, not zeroed: each slice's thread is the first to touch its rows.
  index.entries_.resize(rows);
  index.hashes_.resize(rows);
  index.means_.resize(rows * means_per_row);
  const auto read_slice = [&](std::size_t s) {
    Slice& part = parts[s];
    RowReader reader;
    std::string_view rest = part.text;
    std::uint32_t metric_id = 0;
    std::string_view label;
    std::uint32_t label_id = kNoLabelId;
    std::unordered_map<std::string_view, std::uint32_t> label_ids;
    part.label_ids.reserve(part.rows);
    part.counts.reserve(part.rows);
    for (std::size_t r = 0; r < part.rows; ++r) {
      bool new_metric = false;
      if (!reader.read(rest, new_metric) ||
          reader.key.rounded_means.size() != means_per_row) {
        return;
      }
      if (new_metric) {
        const auto known =
            std::find(part.metrics.begin(), part.metrics.end(), reader.metric);
        metric_id = static_cast<std::uint32_t>(known - part.metrics.begin());
        if (known == part.metrics.end()) part.metrics.push_back(reader.metric);
      }
      const std::size_t ordinal = part.first_row + r;
      DictionaryIndex::Entry& entry = index.entries_[ordinal];
      entry = {reader.key.node_id,
               metric_id,
               reader.key.interval.begin_seconds,
               reader.key.interval.end_seconds,
               static_cast<std::uint32_t>(ordinal * means_per_row),
               static_cast<std::uint32_t>(means_per_row),
               static_cast<std::uint32_t>(part.label_ids.size()),
               0};
      std::copy(reader.key.rounded_means.begin(), reader.key.rounded_means.end(),
                index.means_.begin() + entry.means_begin);
      index.hashes_[ordinal] = reader.hash;
      if (r != 0 && !DictionaryIndex::key_less(part.metrics, index.means_.data(),
                                               index.entries_[ordinal - 1], entry)) {
        return;
      }
      for (const auto& [name, count] : reader.labels) {
        if (label_id == kNoLabelId || name != label) {
          const auto [it, added] = label_ids.try_emplace(
              name, static_cast<std::uint32_t>(part.labels.size()));
          if (added) part.labels.push_back(name);
          label = name;
          label_id = it->second;
        }
        // A label repeated within its row merges: not canonical.
        const auto run = part.label_ids.begin() + entry.labels_begin;
        if (std::find(run, part.label_ids.end(), label_id) != part.label_ids.end()) {
          return;
        }
        part.label_ids.push_back(label_id);
        part.counts.push_back(count);
        ++entry.labels_count;
      }
    }
    part.read = rest.empty();
  };
  util::fork_join(parts.size(), read_slice);

  // Metrics and labels interned in slice order get the sequential
  // loader's first-seen ids; each slice certified its own rows' order,
  // and the owner certifies each place two slices meet.
  std::size_t label_count = 0;
  for (const Slice& part : parts) {
    if (!part.read) return false;
    label_count += part.label_ids.size();
  }
  index.label_ids_.reserve(label_count);
  index.counts_.reserve(label_count);
  std::vector<std::uint32_t> metric_ids;
  std::vector<std::uint32_t> label_ids;
  std::string name;
  for (const Slice& part : parts) {
    metric_ids.clear();
    for (const std::string_view metric : part.metrics) {
      metric_ids.push_back(index.metric_id(name.assign(metric)));
    }
    label_ids.clear();
    for (const std::string_view label : part.labels) {
      label_ids.push_back(labels_.intern(name.assign(label)));
    }
    const auto offset = static_cast<std::uint32_t>(index.label_ids_.size());
    for (const std::uint32_t id : part.label_ids) {
      index.label_ids_.push_back(label_ids[id]);
    }
    index.counts_.insert(index.counts_.end(), part.counts.begin(), part.counts.end());
    for (std::size_t r = part.first_row; r < part.first_row + part.rows; ++r) {
      DictionaryIndex::Entry& entry = index.entries_[r];
      entry.metric_id = metric_ids[entry.metric_id];
      entry.labels_begin += offset;
    }
    if (part.rows != 0 && part.first_row != 0 &&
        !index.key_less(index.entries_[part.first_row - 1],
                        index.entries_[part.first_row])) {
      return false;
    }
  }
  for (std::size_t ordinal = 0; ordinal < rows; ++ordinal) {
    index.place(static_cast<std::uint32_t>(ordinal));
  }
  return true;
}

Dictionary Dictionary::load(std::istream& in) {
  std::ostringstream text;
  text << in.rdbuf();
  return load(std::move(text).str());
}

Dictionary Dictionary::load_file(const std::string& path) {
  return load(read_file(path));
}

std::string Dictionary::read_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("cannot open dictionary: " + path);
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  return dictionary_detail::read_descriptor(fd, path);
}

namespace dictionary_detail {

std::size_t slice_count(std::size_t rows, std::size_t hardware) noexcept {
  return std::clamp<std::size_t>(rows / kRowsPerSlice, 1,
                                 std::max<std::size_t>(hardware, 1));
}

Dictionary load_sliced(std::string_view text, bool& canonical,
                       std::size_t slices, std::size_t* slices_read) {
  return Dictionary::load_text(text, canonical, slices, slices_read);
}

std::string read_descriptor(int fd, const std::string& path) {
  struct stat status {};
  if (::fstat(fd, &status) != 0) {
    throw std::runtime_error("cannot read dictionary: " + path);
  }
  // A regular file's length sizes the read that fills it, plus the byte
  // the read that finds its end is offered; anything else grows as read.
  std::string text(S_ISREG(status.st_mode)
                       ? static_cast<std::size_t>(status.st_size) + 1
                       : std::size_t{1} << 16,
                   '\0');
  std::size_t filled = 0;
  while (true) {
    if (filled == text.size()) text.resize(2 * text.size());
    const ssize_t got = ::read(fd, text.data() + filled, text.size() - filled);
    if (got == 0) break;
    if (got < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("cannot read dictionary: " + path);
    }
    filled += static_cast<std::size_t>(got);
  }
  text.resize(filled);
  return text;
}

}  // namespace dictionary_detail

namespace dictionary_text {

std::optional<double> canonical_mean(std::string_view token) noexcept {
  const auto digits_at = [&](std::size_t at) {
    std::size_t end = at;
    while (end < token.size() && token[end] >= '0' && token[end] <= '9') ++end;
    return token.substr(at, end - at);
  };
  std::size_t at = !token.empty() && token.front() == '-' ? 1 : 0;
  const std::string_view whole = digits_at(at);
  at += whole.size();
  std::string_view fraction;
  if (at < token.size() && token[at] == '.') {
    fraction = digits_at(at + 1);
    // %g keeps no trailing zero; save() writes ".0" only with no fraction.
    if (fraction.empty() || (fraction.back() == '0' && fraction != "0")) {
      return std::nullopt;
    }
    at += 1 + fraction.size();
  }
  if (whole.empty()) return std::nullopt;
  bool zero = false;
  if (at == token.size()) {
    // Fixed notation: decimal exponents -4..9, always with a fraction.
    if (fraction.empty()) return std::nullopt;
    if (whole == "0") {
      const std::size_t leading = fraction.find_first_not_of('0');
      zero = leading == std::string_view::npos;
      if (zero ? fraction.size() != 1
               : leading > 3 || fraction.size() - leading > 10) {
        return std::nullopt;
      }
    } else {
      const std::size_t significant =
          whole.size() + (fraction == "0" ? 0 : fraction.size());
      if (whole.front() == '0' || whole.size() > 10 || significant > 10) {
        return std::nullopt;
      }
    }
  } else {
    // d[.ddd]e±XX for the other exponents, at least two exponent digits.
    if (whole.size() != 1 || whole.front() == '0' || fraction == "0" ||
        fraction.size() > 9 || token[at] != 'e' || at + 2 >= token.size() ||
        (token[at + 1] != '+' && token[at + 1] != '-')) {
      return std::nullopt;
    }
    const std::string_view exponent = digits_at(at + 2);
    if (at + 2 + exponent.size() != token.size() || exponent.size() < 2 ||
        exponent.size() > 3 || (exponent.size() == 3 && exponent.front() == '0')) {
      return std::nullopt;
    }
    int value = 0;
    for (const char c : exponent) value = value * 10 + (c - '0');
    if (token[at + 1] == '-' ? value <= 4 : value <= 9) return std::nullopt;
  }
  double value = 0.0;
  const auto [end, error] =
      std::from_chars(token.data(), token.data() + token.size(), value);
  const bool negative = token.front() == '-';
  if (error == std::errc::result_out_of_range &&
      token.substr(negative ? 1 : 0) == "1.797693135e+308") {
    // Ten digits round every double within ~5e298 of the largest up to
    // this token, one past the range: it reads as the largest double,
    // which save() writes as this token again.
    return negative ? -std::numeric_limits<double>::max()
                    : std::numeric_limits<double>::max();
  }
  if (error != std::errc{} || end != token.data() + token.size()) {
    return std::nullopt;
  }
  // A subnormal keeps fewer than 15 significant digits, so its digits
  // need not print back; digits that underflow to zero do not.
  if (zero ? value != 0.0 : !std::isnormal(value)) return std::nullopt;
  return value;
}

}  // namespace dictionary_text

}  // namespace efd::core
