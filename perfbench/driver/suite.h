// The generated workload file the driver executes. perfbench/gen.py writes
// it from the workload seed; the driver receives nothing else.
//
// One record per line, fields separated by tabs:
//
//   perfbench-suite  1
//   days     <train> <held_out> <test>
//   stream   <name>
//   query    <id> <kind> <stream> <frameql>
//            kind (fcount|scrub|select|distinct|content) and stream are
//            for run.py's checks and for readers; the driver ignores them
//   check    <id> ...                      output checks, for run.py only
//   suite    <id>                          the cold/replay suite, in order
//   tick     <tick> <client> <id>          the serve-mix schedule, in order
#ifndef PERFBENCH_DRIVER_SUITE_H_
#define PERFBENCH_DRIVER_SUITE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

struct Query {
  std::string id;
  std::string frameql;
};

struct Submission {
  int64_t tick = 0;
  std::string client;
  int query = 0;  // index into Suite::queries
};

struct Suite {
  int64_t train_frames = 0;
  int64_t held_out_frames = 0;
  int64_t test_frames = 0;
  std::vector<std::string> streams;
  std::vector<Query> queries;
  /// Indices into `queries`.
  std::vector<int> suite;
  std::vector<Submission> schedule;
};

blazeit::Result<Suite> LoadSuite(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_SUITE_H_
