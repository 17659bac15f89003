#include "cellsim/spe.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace cbe::cell {
namespace {

TEST(LocalStore, CapacityAccounting) {
  LocalStore ls(256 * 1024);
  EXPECT_EQ(ls.free_bytes(), 256u * 1024);
  ls.load_code(117 * 1024);
  EXPECT_EQ(ls.free_bytes(), 139u * 1024);  // the paper's figure
}

TEST(LocalStore, RejectsOversizedModule) {
  LocalStore ls(256 * 1024);
  // Must keep kMinStackHeap free.
  EXPECT_FALSE(ls.can_load(256 * 1024));
  EXPECT_FALSE(ls.can_load(256 * 1024 - LocalStore::kMinStackHeap + 1));
  EXPECT_TRUE(ls.can_load(256 * 1024 - LocalStore::kMinStackHeap));
  EXPECT_THROW(ls.load_code(250 * 1024), std::length_error);
}

TEST(LocalStore, ReplacingModuleReclaimsSpace) {
  LocalStore ls(256 * 1024);
  ls.load_code(200 * 1024);
  ls.load_code(10 * 1024);
  EXPECT_EQ(ls.free_bytes(), 246u * 1024);
}

TEST(Spe, StartsIdleWithNoModule) {
  Spe spe(0, 0, 256 * 1024);
  EXPECT_TRUE(spe.idle());
  EXPECT_FALSE(spe.has_module(0, ModuleVariant::Sequential));
  EXPECT_FALSE(spe.has_module(0, ModuleVariant::Parallel));
}

TEST(Spe, ReserveReleaseCycle) {
  Spe spe(3, 0, 256 * 1024);
  spe.reserve(sim::Time::us(10.0));
  EXPECT_FALSE(spe.idle());
  spe.release(sim::Time::us(30.0));
  EXPECT_TRUE(spe.idle());
  EXPECT_EQ(spe.tasks_served(), 1u);
  EXPECT_EQ(spe.busy_time(sim::Time::us(100.0)), sim::Time::us(20.0));
}

TEST(Spe, DoubleReserveThrows) {
  Spe spe(0, 0, 256 * 1024);
  spe.reserve(sim::Time());
  EXPECT_THROW(spe.reserve(sim::Time()), std::logic_error);
}

TEST(Spe, ReleaseIdleThrows) {
  Spe spe(0, 0, 256 * 1024);
  EXPECT_THROW(spe.release(sim::Time()), std::logic_error);
}

TEST(Spe, BusyTimeIncludesOpenInterval) {
  Spe spe(0, 0, 256 * 1024);
  spe.reserve(sim::Time::us(5.0));
  EXPECT_EQ(spe.busy_time(sim::Time::us(8.0)), sim::Time::us(3.0));
}

TEST(Spe, UtilizationFraction) {
  Spe spe(0, 1, 256 * 1024);
  spe.reserve(sim::Time());
  spe.release(sim::Time::us(25.0));
  EXPECT_NEAR(spe.utilization(sim::Time::us(100.0)), 0.25, 1e-9);
  EXPECT_EQ(spe.cell(), 1);
}

TEST(Spe, ModuleTrackingAndVariants) {
  Spe spe(0, 0, 256 * 1024);
  spe.set_module(0, ModuleVariant::Sequential, 117 * 1024);
  EXPECT_TRUE(spe.has_module(0, ModuleVariant::Sequential));
  EXPECT_FALSE(spe.has_module(0, ModuleVariant::Parallel));
  EXPECT_FALSE(spe.has_module(1, ModuleVariant::Sequential));
  spe.set_module(0, ModuleVariant::Parallel, 123 * 1024);
  EXPECT_TRUE(spe.has_module(0, ModuleVariant::Parallel));
  EXPECT_EQ(spe.code_loads(), 2u);
}

}  // namespace
}  // namespace cbe::cell
