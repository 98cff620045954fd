#include "driver/suite.h"

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>

namespace perfbench {
namespace {

std::vector<std::string> SplitTabs(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, '\t')) fields.push_back(field);
  return fields;
}

blazeit::Status Bad(const std::string& path, int line_no,
                    const std::string& why) {
  return blazeit::Status::ParseError(path + ":" + std::to_string(line_no) +
                                     ": " + why);
}

bool ParseInt(const std::string& s, int64_t* out) {
  char* end = nullptr;
  const long long v = std::strtoll(s.c_str(), &end, 10);
  if (s.empty() || *end != '\0') return false;
  *out = v;
  return true;
}

}  // namespace

blazeit::Result<Suite> LoadSuite(const std::string& path) {
  std::ifstream in(path);
  if (!in) return blazeit::Status::NotFound("cannot read suite " + path);
  Suite suite;
  std::map<std::string, int> by_id;
  std::string line;
  int line_no = 0;
  bool header = false;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> f = SplitTabs(line);
    const std::string& tag = f[0];
    if (!header) {
      if (f.size() != 2 || tag != "perfbench-suite" || f[1] != "1") {
        return Bad(path, line_no, "missing 'perfbench-suite 1' header");
      }
      header = true;
      continue;
    }
    if (tag == "days" && f.size() == 4) {
      if (!ParseInt(f[1], &suite.train_frames) ||
          !ParseInt(f[2], &suite.held_out_frames) ||
          !ParseInt(f[3], &suite.test_frames)) {
        return Bad(path, line_no, "bad day lengths");
      }
    } else if (tag == "stream" && f.size() == 2) {
      suite.streams.push_back(f[1]);
    } else if (tag == "query" && f.size() == 5) {
      if (by_id.count(f[1])) return Bad(path, line_no, "duplicate id " + f[1]);
      Query q;
      q.id = f[1];
      q.frameql = f[4];
      by_id[q.id] = static_cast<int>(suite.queries.size());
      suite.queries.push_back(q);
    } else if (tag == "check") {
      continue;  // run.py judges the outputs; the driver only records them
    } else if (tag == "suite" && f.size() == 2) {
      auto it = by_id.find(f[1]);
      if (it == by_id.end()) return Bad(path, line_no, "unknown id " + f[1]);
      suite.suite.push_back(it->second);
    } else if (tag == "tick" && f.size() == 4) {
      auto it = by_id.find(f[3]);
      if (it == by_id.end()) return Bad(path, line_no, "unknown id " + f[3]);
      Submission s;
      if (!ParseInt(f[1], &s.tick)) return Bad(path, line_no, "bad tick");
      s.client = f[2];
      s.query = it->second;
      suite.schedule.push_back(s);
    } else {
      return Bad(path, line_no, "unrecognized record '" + tag + "'");
    }
  }
  if (!header) return Bad(path, line_no, "empty suite");
  if (suite.streams.empty() || suite.suite.empty() ||
      suite.test_frames <= 0) {
    return Bad(path, line_no, "suite needs days, streams and suite queries");
  }
  return suite;
}

}  // namespace perfbench
