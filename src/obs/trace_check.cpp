#include "obs/trace_check.h"

#include <cctype>
#include <cstdlib>
#include <map>
#include <sstream>
#include <tuple>

#include "util/json.h"

namespace cusw::obs::json {

namespace {

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_(text), error_(error) {}

  bool parse(Value& out) {
    skip_ws();
    if (!value(out)) return false;
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters");
    return true;
  }

 private:
  bool fail(const std::string& msg) {
    if (error_ != nullptr && error_->empty()) {
      std::ostringstream os;
      os << msg << " at byte " << pos_;
      *error_ = os.str();
    }
    return false;
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return fail("bad literal");
    pos_ += word.size();
    return true;
  }

  bool value(Value& out) {
    if (pos_ >= text_.size()) return fail("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
      case '[': {
        // Containers recurse; bound the depth so hostile input fails
        // cleanly instead of overflowing the stack.
        if (depth_ == kMaxDepth) return fail("nested too deep");
        ++depth_;
        const bool ok = c == '{' ? object(out) : array(out);
        --depth_;
        return ok;
      }
      case '"':
        out.kind = Value::Kind::kString;
        return string(out.string);
      case 't':
        out.kind = Value::Kind::kBool;
        out.boolean = true;
        return literal("true");
      case 'f':
        out.kind = Value::Kind::kBool;
        out.boolean = false;
        return literal("false");
      case 'n':
        out.kind = Value::Kind::kNull;
        return literal("null");
      default:
        return number(out);
    }
  }

  bool string(std::string& out) {
    if (text_[pos_] != '"') return fail("expected string");
    ++pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        if (pos_ + 1 >= text_.size()) return fail("bad escape");
        const char e = text_[pos_ + 1];
        pos_ += 2;
        switch (e) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'b':
            out += '\b';
            break;
          case 'f':
            out += '\f';
            break;
          case 'n':
            out += '\n';
            break;
          case 'r':
            out += '\r';
            break;
          case 't':
            out += '\t';
            break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return fail("bad \\u escape");
            // Decoded only far enough for validation: non-ASCII code
            // points round-trip as '?' (trace names are ASCII).
            const std::string hex(text_.substr(pos_, 4));
            char* end = nullptr;
            const long cp = std::strtol(hex.c_str(), &end, 16);
            if (end != hex.c_str() + 4) return fail("bad \\u escape");
            out += cp < 0x80 ? static_cast<char>(cp) : '?';
            pos_ += 4;
            break;
          }
          default:
            return fail("bad escape");
        }
        continue;
      }
      out += c;
      ++pos_;
    }
    return fail("unterminated string");
  }

  bool number(Value& out) {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
      ++pos_;
    bool digits = false;
    const auto eat_digits = [&] {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        digits = true;
      }
    };
    eat_digits();
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      eat_digits();
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+'))
        ++pos_;
      eat_digits();
    }
    if (!digits) return fail("expected a value");
    out.kind = Value::Kind::kNumber;
    out.number = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(),
                             nullptr);
    return true;
  }

  bool array(Value& out) {
    out.kind = Value::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    for (;;) {
      Value v;
      if (!value(v)) return false;
      out.array.push_back(std::move(v));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        skip_ws();
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or ']'");
    }
  }

  bool object(Value& out) {
    out.kind = Value::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    for (;;) {
      skip_ws();
      std::string key;
      if (pos_ >= text_.size() || text_[pos_] != '"')
        return fail("expected object key");
      if (!string(key)) return false;
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != ':')
        return fail("expected ':'");
      ++pos_;
      skip_ws();
      Value v;
      if (!value(v)) return false;
      out.object.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= text_.size()) return fail("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return fail("expected ',' or '}'");
    }
  }

  /// Far above real documents (capsules and traces nest < 10 deep).
  static constexpr int kMaxDepth = 256;

  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

const Value* Value::find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool parse(std::string_view text, Value& out, std::string* error) {
  if (error != nullptr) error->clear();
  return Parser(text, error).parse(out);
}

}  // namespace cusw::obs::json

namespace cusw::obs {

namespace {

// Printed timestamps carry millisecond-of-a-microsecond resolution
// (%.3f), so nesting/monotonicity checks tolerate the rounding.
constexpr double kEps = 0.002;

std::string event_err(std::size_t i, const std::string& what) {
  std::ostringstream os;
  os << "traceEvents[" << i << "]: " << what;
  return os.str();
}

}  // namespace

TraceCheck validate_chrome_trace(std::string_view text) {
  TraceCheck out;
  json::Value root;
  std::string perr;
  if (!json::parse(text, root, &perr)) {
    out.error = "JSON parse error: " + perr;
    return out;
  }
  if (root.kind != json::Value::Kind::kObject) {
    out.error = "top level is not an object";
    return out;
  }
  const json::Value* events = root.find("traceEvents");
  if (events == nullptr || events->kind != json::Value::Kind::kArray) {
    out.error = "missing traceEvents array";
    return out;
  }

  struct Span {
    double ts;
    double end;
  };
  std::map<std::pair<int, int>, std::vector<Span>> stacks;
  std::map<std::pair<int, int>, double> last_ts;

  // Async lanes: one per (pid, cat, id). `open` is the stack of unclosed
  // begins; `closed` flips when the outermost span ends, after which the
  // lane must stay silent.
  struct AsyncOpen {
    std::string name;
    double ts;
  };
  struct AsyncLane {
    std::vector<AsyncOpen> open;
    bool closed = false;
  };
  std::map<std::tuple<int, std::string, std::string>, AsyncLane> lanes;

  // Sampled-telemetry counters (cat "sample") are checked against the
  // run's span — the extent of every timestamped non-sample event — after
  // the pass, since samples may precede the events they summarise in
  // file order.
  double run_min = 0.0;
  double run_max = 0.0;
  bool have_run = false;
  std::vector<std::pair<std::size_t, double>> sample_events;
  const auto note_run = [&](double lo, double hi) {
    run_min = have_run ? std::min(run_min, lo) : lo;
    run_max = have_run ? std::max(run_max, hi) : hi;
    have_run = true;
  };

  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const json::Value& e = events->array[i];
    if (e.kind != json::Value::Kind::kObject) {
      out.error = event_err(i, "not an object");
      return out;
    }
    const json::Value* name = e.find("name");
    const json::Value* ph = e.find("ph");
    const json::Value* pid = e.find("pid");
    const json::Value* tid = e.find("tid");
    if (name == nullptr || name->kind != json::Value::Kind::kString ||
        ph == nullptr || ph->kind != json::Value::Kind::kString ||
        pid == nullptr || pid->kind != json::Value::Kind::kNumber ||
        tid == nullptr || tid->kind != json::Value::Kind::kNumber) {
      out.error = event_err(i, "missing name/ph/pid/tid");
      return out;
    }
    ++out.events;
    if (ph->string == "M") continue;  // metadata carries no timestamps
    if (ph->string != "X" && ph->string != "i" && ph->string != "C" &&
        ph->string != "b" && ph->string != "n" && ph->string != "e") {
      out.error = event_err(i, "unexpected phase '" + ph->string + "'");
      return out;
    }
    const json::Value* ts = e.find("ts");
    if (ph->string == "b" || ph->string == "n" || ph->string == "e") {
      if (ts == nullptr || ts->kind != json::Value::Kind::kNumber) {
        out.error = event_err(i, "async event missing numeric ts");
        return out;
      }
      if (e.find("dur") != nullptr) {
        out.error = event_err(i, "async event carries a dur");
        return out;
      }
      const json::Value* cat = e.find("cat");
      if (cat == nullptr || cat->kind != json::Value::Kind::kString ||
          cat->string.empty()) {
        out.error = event_err(i, "async event missing cat");
        return out;
      }
      const json::Value* id = e.find("id");
      std::string lane_id;
      if (id != nullptr && id->kind == json::Value::Kind::kString) {
        lane_id = id->string;
      } else if (id != nullptr && id->kind == json::Value::Kind::kNumber) {
        lane_id = util::json_number(id->number);
      } else {
        out.error = event_err(i, "async event missing id");
        return out;
      }
      ++out.asyncs;
      note_run(ts->number, ts->number);
      AsyncLane& lane = lanes[{static_cast<int>(pid->number), cat->string,
                               lane_id}];
      if (lane.closed) {
        out.error = event_err(
            i, "async event '" + name->string +
                   "' after its lane's outermost span closed (id " +
                   lane_id + ")");
        return out;
      }
      if (ph->string == "b") {
        lane.open.push_back({name->string, ts->number});
      } else if (ph->string == "n") {
        if (lane.open.empty()) {
          out.error = event_err(i, "async instant '" + name->string +
                                       "' outside any open span");
          return out;
        }
        if (ts->number + kEps < lane.open.back().ts) {
          out.error = event_err(i, "async instant '" + name->string +
                                       "' precedes its enclosing span");
          return out;
        }
      } else {  // "e"
        if (lane.open.empty()) {
          out.error = event_err(
              i, "async end '" + name->string + "' without a begin");
          return out;
        }
        if (lane.open.back().name != name->string) {
          out.error = event_err(
              i, "async end '" + name->string + "' does not match open '" +
                     lane.open.back().name + "' (phases must nest in their "
                     "lane)");
          return out;
        }
        if (ts->number + kEps < lane.open.back().ts) {
          out.error = event_err(
              i, "async span '" + name->string + "' ends before it begins");
          return out;
        }
        lane.open.pop_back();
        if (lane.open.empty()) lane.closed = true;
      }
      continue;
    }
    if (ph->string == "C") {
      if (ts == nullptr || ts->kind != json::Value::Kind::kNumber) {
        out.error = event_err(i, "counter missing numeric ts");
        return out;
      }
      if (e.find("dur") != nullptr) {
        out.error = event_err(i, "counter carries a dur");
        return out;
      }
      const json::Value* cargs = e.find("args");
      if (cargs == nullptr || cargs->kind != json::Value::Kind::kObject ||
          cargs->object.empty()) {
        out.error = event_err(i, "counter missing args object");
        return out;
      }
      for (const auto& [k, v] : cargs->object) {
        if (v.kind != json::Value::Kind::kNumber) {
          out.error =
              event_err(i, "counter series '" + k + "' is not numeric");
          return out;
        }
      }
      ++out.counters;
      const json::Value* ccat = e.find("cat");
      if (ccat != nullptr && ccat->kind == json::Value::Kind::kString &&
          ccat->string == "sample") {
        ++out.samples;
        sample_events.emplace_back(i, ts->number);
      } else {
        note_run(ts->number, ts->number);
      }
      const std::pair<int, int> track{static_cast<int>(pid->number),
                                      static_cast<int>(tid->number)};
      const auto [it, fresh] = last_ts.emplace(track, ts->number);
      if (!fresh) {
        if (ts->number + kEps < it->second) {
          out.error = event_err(
              i, "counter precedes its track's previous event ('" +
                     name->string + "')");
          return out;
        }
        it->second = std::max(it->second, ts->number);
      }
      continue;
    }
    if (ph->string == "i") {
      if (ts == nullptr || ts->kind != json::Value::Kind::kNumber) {
        out.error = event_err(i, "instant missing numeric ts");
        return out;
      }
      if (e.find("dur") != nullptr) {
        out.error = event_err(i, "instant carries a dur");
        return out;
      }
      ++out.instants;
      note_run(ts->number, ts->number);
      const std::pair<int, int> track{static_cast<int>(pid->number),
                                      static_cast<int>(tid->number)};
      const auto [it, fresh] = last_ts.emplace(track, ts->number);
      if (!fresh) {
        if (ts->number + kEps < it->second) {
          out.error = event_err(
              i, "instant precedes its track's previous event ('" +
                     name->string + "')");
          return out;
        }
        it->second = std::max(it->second, ts->number);
      }
      continue;
    }
    const json::Value* dur = e.find("dur");
    if (ts == nullptr || ts->kind != json::Value::Kind::kNumber ||
        dur == nullptr || dur->kind != json::Value::Kind::kNumber) {
      out.error = event_err(i, "X event missing numeric ts/dur");
      return out;
    }
    if (dur->number < 0.0) {
      out.error = event_err(i, "negative dur");
      return out;
    }
    ++out.spans;

    // Stall breakdowns ride on span args: the per-reason `stall_*` cycles
    // must never exceed the span's `charged_cycles` total (the simulator
    // partitions the charge exactly; exceeding it means a corrupt trace).
    // Slack covers only %.12g printing of the cycle values.
    const json::Value* args = e.find("args");
    if (args != nullptr && args->kind == json::Value::Kind::kObject) {
      const json::Value* charged = args->find("charged_cycles");
      if (charged != nullptr &&
          charged->kind == json::Value::Kind::kNumber) {
        double stall_sum = 0.0;
        for (const auto& [k, v] : args->object) {
          if (k.rfind("stall_", 0) == 0 &&
              v.kind == json::Value::Kind::kNumber) {
            stall_sum += v.number;
          }
        }
        if (stall_sum > charged->number * (1.0 + 1e-9) + kEps) {
          out.error = event_err(
              i, "span '" + name->string +
                     "' stall cycles exceed charged_cycles");
          return out;
        }
      }
    }

    const std::pair<int, int> track{static_cast<int>(pid->number),
                                    static_cast<int>(tid->number)};
    const double start = ts->number;
    const double end = start + dur->number;
    note_run(start, end);
    const auto [it, fresh] = last_ts.emplace(track, start);
    if (!fresh) {
      if (start + kEps < it->second) {
        out.error = event_err(
            i, "span starts before its track's previous span ('" +
                   name->string + "')");
        return out;
      }
      it->second = std::max(it->second, start);
    }
    auto& stack = stacks[track];
    while (!stack.empty() && stack.back().end <= start + kEps)
      stack.pop_back();
    if (!stack.empty() && end > stack.back().end + kEps) {
      out.error = event_err(
          i, "span '" + name->string + "' overlaps the end of its parent");
      return out;
    }
    stack.push_back({start, end});
  }
  for (const auto& [i, sts] : sample_events) {
    if (!have_run) {
      out.error =
          event_err(i, "sampled counter in a trace with no run events");
      return out;
    }
    if (sts + kEps < run_min || sts > run_max + kEps) {
      out.error =
          event_err(i, "sampled counter outside its run's span");
      return out;
    }
  }
  for (const auto& [key, lane] : lanes) {
    if (!lane.open.empty()) {
      out.error = "async span '" + lane.open.back().name +
                  "' (lane id " + std::get<2>(key) + ") never ends";
      return out;
    }
  }
  out.tracks = last_ts.size();
  out.lanes = lanes.size();
  out.ok = true;
  return out;
}

}  // namespace cusw::obs
