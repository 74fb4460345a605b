// results_diff — compares two result-store directories and exits nonzero
// on regression. Every cell (simulated cycle counts, analytical WCL bounds,
// configuration labels) and every claim check must match bit-for-bit. This
// is the tool CI runs against the committed golden baseline under
// bench/golden.
//
//   results_diff <golden_root> <candidate_root>
//
// Exit codes: 0 = no regression, 1 = regression(s) found, 2 = usage or
// I/O error.
#include <cstdio>
#include <exception>
#include <string>

#include "results/diff.h"
#include "tools/cli.h"

namespace {

void print_usage() {
  std::printf("usage: results_diff <golden_root> <candidate_root>\n");
}

int run(int argc, char** argv) {
  std::string golden;
  std::string candidate;

  psllc::cli::ArgCursor args("results_diff", argc, argv);
  while (!args.done()) {
    const std::string arg = args.arg();
    if (args.is_help()) {
      print_usage();
      return 0;
    }
    if (args.is_flag()) {
      return args.unknown_flag();
    }
    if (golden.empty()) {
      golden = arg;
    } else if (candidate.empty()) {
      candidate = arg;
    } else {
      std::fprintf(stderr, "results_diff: too many positional arguments\n");
      return 2;
    }
    args.advance();
  }
  if (golden.empty() || candidate.empty()) {
    print_usage();
    return 2;
  }

  const psllc::results::DiffReport report =
      psllc::results::diff_directories(golden, candidate);
  std::printf("%s", report.to_text().c_str());
  if (!report.ok()) {
    std::fprintf(stderr,
                 "results_diff: %d regression(s) against %s\n",
                 report.num_regressions(), golden.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "results_diff: %s\n", e.what());
    return 2;
  }
}
