#include "runtime/graph.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace chpo::rt {

TaskId TaskGraph::add_task(TaskDef def, const std::vector<Param>& params, StudyId study) {
  const TaskId id = tasks_.size();
  TaskRecord record;
  record.id = id;
  record.study = study;
  record.def = std::move(def);

  std::vector<TaskId> deps;
  for (const Param& p : params) {
    AccessPlan plan = registry_.plan_access(id, p);
    record.bindings.push_back(
        ParamBinding{.param = p, .read_version = plan.read_version, .write_version = plan.write_version});
    for (TaskId d : plan.depends_on)
      if (std::find(deps.begin(), deps.end(), d) == deps.end()) deps.push_back(d);
  }

  // Implicit return value: a fresh datum written (Out) by this task.
  const DataId ret = registry_.register_data({}, 64, record.def.name + "#" + std::to_string(id) + ".ret");
  AccessPlan ret_plan = registry_.plan_access(id, Param{.data = ret, .dir = Direction::Out});
  record.bindings.push_back(ParamBinding{.param = Param{.data = ret, .dir = Direction::Out},
                                         .read_version = 0,
                                         .write_version = ret_plan.write_version});
  record.result = Future{.data = ret, .version = ret_plan.write_version, .producer = id};

  record.predecessors = deps;
  // Tasks may be submitted after some predecessors already ran (the
  // paper's plot task is submitted once the experiments are done): only
  // unfinished predecessors still gate this task, and a failed or
  // cancelled predecessor dooms it immediately.
  std::size_t pending = 0;
  bool doomed = false;
  for (TaskId d : deps) {
    if (d >= id)
      throw std::logic_error("TaskGraph: dependency on unknown task " + std::to_string(d) +
                             " (registry accessed outside this graph?)");
    tasks_[d].successors.push_back(id);
    switch (tasks_[d].state) {
      case TaskState::Done: break;
      case TaskState::Failed:
      case TaskState::Cancelled:
        doomed = true;
        record.failure_reason = "predecessor " + std::to_string(d) + " failed";
        break;
      default: ++pending;
    }
  }
  record.deps_remaining = pending;
  record.state = doomed ? TaskState::Cancelled
                        : (pending == 0 ? TaskState::Ready : TaskState::WaitingDeps);

  tasks_.push_back(std::move(record));
  return id;
}

std::vector<TaskId> TaskGraph::tasks_in_state(TaskState state) const {
  std::vector<TaskId> out;
  for (const TaskRecord& t : tasks_)
    if (t.state == state) out.push_back(t.id);
  return out;
}

bool TaskGraph::is_acyclic() const {
  for (const TaskRecord& t : tasks_)
    for (TaskId p : t.predecessors)
      if (p >= t.id) return false;
  return true;
}

std::size_t TaskGraph::critical_path_length() const {
  std::vector<std::size_t> depth(tasks_.size(), 0);
  std::size_t longest = 0;
  for (const TaskRecord& t : tasks_) {
    std::size_t d = 1;
    for (TaskId p : t.predecessors) d = std::max(d, depth[p] + 1);
    depth[t.id] = d;
    longest = std::max(longest, d);
  }
  return longest;
}

std::string TaskGraph::to_dot() const {
  std::ostringstream out;
  out << "digraph app {\n  rankdir=TB;\n  node [shape=circle, fontsize=10];\n";
  for (const TaskRecord& t : tasks_) {
    out << "  t" << t.id << " [label=\"" << t.id + 1 << "\", tooltip=\"" << t.def.name << "\"";
    if (t.def.priority) out << ", penwidth=2";
    out << "];\n";
  }
  // Data edges: for each In/InOut binding with a producing task, draw
  // producer -> consumer labelled d{datum}v{version} as in Figure 3.
  for (const TaskRecord& t : tasks_) {
    for (const ParamBinding& b : t.bindings) {
      if (b.param.dir == Direction::Out) continue;
      const TaskId producer = registry_.producer(b.param.data, b.read_version);
      if (producer == kNoTask) continue;
      out << "  t" << producer << " -> t" << t.id << " [label=\"d" << b.param.data << "v"
          << b.read_version << "\", fontsize=8];\n";
    }
  }
  // Pure ordering edges (WAR/WAW) that carry no data: draw dashed.
  for (const TaskRecord& t : tasks_) {
    for (TaskId p : t.predecessors) {
      bool has_data_edge = false;
      for (const ParamBinding& b : t.bindings) {
        if (b.param.dir == Direction::Out) continue;
        if (registry_.producer(b.param.data, b.read_version) == p) {
          has_data_edge = true;
          break;
        }
      }
      if (!has_data_edge) out << "  t" << p << " -> t" << t.id << " [style=dashed];\n";
    }
  }
  bool sync_node = false;
  for (const TaskRecord& t : tasks_) {
    if (!t.synced) continue;
    if (!sync_node) out << "  sync [shape=octagon, label=\"sync\"];\n";
    sync_node = true;
    out << "  t" << t.id << " -> sync [label=\"d" << t.result.data << "v" << t.result.version
        << "\", fontsize=8];\n";
  }
  out << "}\n";
  return out.str();
}

}  // namespace chpo::rt
