#include "harness/scenario_registry.hpp"

#include <stdexcept>

namespace powertcp::harness {

ScenarioRegistry::ScenarioRegistry() { register_builtin_scenarios(*this); }

const ScenarioRegistry& ScenarioRegistry::instance() {
  static const ScenarioRegistry kRegistry;
  return kRegistry;
}

void ScenarioRegistry::add(ScenarioEntry entry) {
  if (entry.name.empty()) {
    throw std::logic_error("ScenarioRegistry: entry needs a non-empty name");
  }
  if (!entry.make) {
    throw std::logic_error("ScenarioRegistry: kind '" + entry.name +
                           "' needs a factory");
  }
  if (find(entry.name) != nullptr) {
    throw std::logic_error("ScenarioRegistry: kind '" + entry.name +
                           "' is already registered");
  }
  entries_.push_back(std::move(entry));
}

const ScenarioEntry* ScenarioRegistry::find(const std::string& name) const {
  for (const auto& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

const ScenarioEntry& ScenarioRegistry::at(const std::string& name) const {
  const ScenarioEntry* e = find(name);
  if (e == nullptr) {
    throw std::invalid_argument("unknown scenario kind '" + name +
                                "'; known: " + joined_names());
  }
  return *e;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& e : entries_) out.push_back(e.name);
  return out;
}

std::string ScenarioRegistry::joined_names() const {
  std::string out;
  for (const auto& e : entries_) {
    if (!out.empty()) out += ", ";
    out += e.name;
  }
  return out;
}

}  // namespace powertcp::harness
