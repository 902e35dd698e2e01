#include "runtime/worker_context.hh"

#include <memory>

namespace capo::runtime {

namespace {

// Owned by the thread: a pool worker's context (and the arena blocks
// it holds) is destroyed when that worker exits.
thread_local std::unique_ptr<WorkerContext> t_context;

} // namespace

WorkerContext &
WorkerContext::instance()
{
    if (t_context == nullptr)
        t_context.reset(new WorkerContext());
    return *t_context;
}

void
WorkerContext::resetForTest()
{
    if (t_context == nullptr)
        return;
    t_context->arena_.release();
    t_context->world_ = World();
    t_context->phase_hint_ = 0;
    t_context->cycle_hint_ = 0;
}

} // namespace capo::runtime
