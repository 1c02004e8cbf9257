// Interactive schedule explorer: renders the static micro-batch schedules of
// Varuna, GPipe, 1F1B and DeepSpeed side by side for any pipeline shape, in
// unit times (F = R = 1, B = 2), with makespans and idle fractions.
//
// Usage: schedule_explorer [depth] [microbatches]    (default: 4 8)
#include <cstdio>
#include <cstdlib>

#include "src/varuna/varuna.h"

int main(int argc, char** argv) {
  using namespace varuna;

  const int depth = argc > 1 ? std::atoi(argv[1]) : 4;
  const int microbatches = argc > 2 ? std::atoi(argv[2]) : 8;
  if (depth < 1 || depth > 64 || microbatches < 1 || microbatches > 512) {
    std::fprintf(stderr, "usage: %s [depth 1..64] [microbatches 1..512]\n", argv[0]);
    return 1;
  }

  std::printf("pipeline %d stages, %d micro-batches (unit times F=R=1, B=2)\n\n", depth,
              microbatches);
  // Work per stage: interior stages run F+R+B per micro-batch, the last stage
  // of Varuna runs F+B only.
  for (const ScheduleKind kind : {ScheduleKind::kVaruna, ScheduleKind::kGpipe,
                                  ScheduleKind::kOneFOneB, ScheduleKind::kDeepSpeed}) {
    const Schedule& schedule = GenerateSchedule(kind, depth, microbatches);
    const double makespan = ScheduleMakespanUnits(schedule);
    const double busy_units = 4.0 * microbatches;  // Interior-stage work.
    std::printf("--- %s: makespan %.0f units, interior-stage utilisation %.0f%%%s\n",
                ToString(kind).c_str(), makespan, 100.0 * busy_units / makespan,
                schedule.opportunistic ? " (opportunistic at runtime)" : "");
    if (depth <= 12 && microbatches <= 24) {
      std::printf("%s\n", RenderScheduleGantt(schedule, 120).c_str());
    } else {
      std::printf("(too large to render; reduce depth/microbatches to see the Gantt)\n\n");
    }
  }
  return 0;
}
