// Fixture: scheduling policies reading the whole ready set every epoch.
#include <algorithm>
#include <vector>

void sort_all(const Context& ctx, std::vector<int>& order) {
  order.assign(ctx.ready_tasks().begin(), ctx.ready_tasks().end());
  std::sort(order.begin(), order.end());
}

int count_ready(const Context* ctx) { return ctx->ready_tasks().size(); }

// A declaration, a free function and the name alone are not member calls.
struct Context {
  std::span<const int> ready_tasks() const;
};
int ready_tasks(int n);
int uses_free_function() { return ready_tasks(3); }
