// Fixture: a suppressed whole-set read (a policy whose rule draws over
// every ready task), and the delta reads that need no suppression.
#include <vector>

void shuffle_all(const Context& ctx, std::vector<int>& tasks) {
  // LINT-ALLOW(ready-scan): fixture stand-in for a shuffle over every ready task
  tasks.assign(ctx.ready_tasks().begin(), ctx.ready_tasks().end());
}

void feed(const Context& ctx, Index& index) {
  for (const int task : ctx.newly_ready()) index.add(task);
}
