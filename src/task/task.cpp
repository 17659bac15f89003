#include "task/task.hpp"

#include <iterator>
#include <stdexcept>

namespace cbe::task {

double ProcessTrace::total_spe_cycles() const noexcept {
  double s = 0.0;
  for (const auto& seg : segments) s += seg.task.spe_cycles_total();
  return s;
}

namespace {
// Paper, Section 5.1: the three ML functions merged into one module of
// 117 KB; the variant with parallelized loops is a few KB larger.
constexpr CodeModule kModules[] = {
    {117 * 1024, 123 * 1024},  // kRaxmlModule
};
}  // namespace

const CodeModule& code_module(std::uint16_t id) {
  if (id >= std::size(kModules)) {
    throw std::out_of_range("code_module: bad module id");
  }
  return kModules[id];
}

}  // namespace cbe::task
