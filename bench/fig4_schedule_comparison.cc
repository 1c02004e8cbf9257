// Figure 4: Varuna's micro-batch schedule contrasted against GPipe for a
// 4-stage pipeline with 5 micro-batches (unit times: F = R = 1, B = 2), plus
// a makespan sweep across pipeline shapes for all four schedule generators.
#include <cstdio>

#include "src/varuna/varuna.h"

namespace varuna {
namespace {

void Run() {
  std::printf("=== Figure 4: Varuna vs GPipe micro-batch schedules (4 stages, 5 ubatches) ===\n\n");
  const Schedule& varuna = GenerateSchedule(ScheduleKind::kVaruna, 4, 5);
  const Schedule& gpipe = GenerateSchedule(ScheduleKind::kGpipe, 4, 5);

  std::printf("(a) Varuna schedule  —  makespan %.0f units\n%s\n",
              ScheduleMakespanUnits(varuna), RenderScheduleGantt(varuna, 112).c_str());
  std::printf("(b) GPipe schedule   —  makespan %.0f units\n%s\n",
              ScheduleMakespanUnits(gpipe), RenderScheduleGantt(gpipe, 112).c_str());

  std::printf("Properties reproduced from the paper:\n");
  std::printf("  * Varuna finishes earlier than GPipe (%.0f vs %.0f units);\n",
              ScheduleMakespanUnits(varuna), ScheduleMakespanUnits(gpipe));
  std::printf("  * Varuna's idle time is distributed through the schedule (jitter buffers),\n"
              "    GPipe's is concentrated in the middle;\n");
  std::printf("  * Varuna's last stage never recomputes (room for the LM head);\n");
  std::printf("  * forwards are interspersed, feeding opportunistic scheduling.\n\n");

  std::printf("Makespan (unit times) across shapes:\n");
  Table table({"P x Nm", "Varuna", "GPipe", "1F1B", "DeepSpeed", "4Nm+3(P-1)"});
  for (const auto& [depth, microbatches] :
       {std::pair{4, 5}, {4, 16}, {8, 16}, {8, 64}, {16, 64}, {16, 256}}) {
    std::vector<std::string> row;
    row.push_back(std::to_string(depth) + " x " + std::to_string(microbatches));
    for (const ScheduleKind kind : {ScheduleKind::kVaruna, ScheduleKind::kGpipe,
                                    ScheduleKind::kOneFOneB, ScheduleKind::kDeepSpeed}) {
      row.push_back(Table::Num(ScheduleMakespanUnits(GenerateSchedule(kind, depth, microbatches)), 0));
    }
    // Reference scale: interior stages need 4 units per micro-batch (F+R+B).
    row.push_back(Table::Num(4.0 * microbatches + 3.0 * (depth - 1), 0));
    table.AddRow(row);
  }
  std::printf("%s\n", table.Render().c_str());
}

}  // namespace
}  // namespace varuna

int main() {
  varuna::Run();
  return 0;
}
