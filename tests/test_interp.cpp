// Reference-interpreter tests: SIMT semantics (masks, loops, barriers),
// dynamic safety checks (out-of-bounds, barrier divergence, runaway
// guards), atomics, printf formatting, and instrumentation hooks.
#include <gtest/gtest.h>

#include "common/bits.hpp"
#include "kir/build.hpp"
#include "kir/interp.hpp"

namespace fgpu::kir {
namespace {

TEST(InterpTest, OutOfBoundsLoadIsReported) {
  KernelBuilder kb("oob");
  Buf a = kb.buf_i32("a"), out = kb.buf_i32("out");
  kb.store(out, Val(0), kb.load(a, Val(100)));
  std::vector<uint32_t> data(4), result(4);
  Interpreter interp;
  auto status = interp.run(kb.build(), {KernelArg::buffer(&data), KernelArg::buffer(&result)},
                           NDRange::linear(1, 1));
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("out-of-bounds"), std::string::npos);
  EXPECT_NE(status.message().find("a[100]"), std::string::npos);
}

TEST(InterpTest, OutOfBoundsLocalIsReported) {
  KernelBuilder kb("oob_local");
  Buf tile = kb.local_i32("tile", 8);
  kb.store(tile, Val(9), Val(1));
  Interpreter interp;
  auto status = interp.run(kb.build(), {}, NDRange::linear(1, 1));
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("__local"), std::string::npos);
}

TEST(InterpTest, BarrierUnderDivergenceIsAnError) {
  KernelBuilder kb("bad_barrier");
  kb.if_(kb.local_id(0) < 2, [&] { kb.barrier(); });
  Interpreter interp;
  auto status = interp.run(kb.build(), {}, NDRange::linear(4, 4));
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("divergent"), std::string::npos);
}

TEST(InterpTest, RunawayLoopHitsStatementBudget) {
  KernelBuilder kb("forever");
  Val go = kb.let_("go", Val(1));
  kb.while_(go == 1, [&] {});
  InterpOptions options;
  options.max_statements = 10'000;
  Interpreter interp(options);
  auto status = interp.run(kb.build(), {}, NDRange::linear(1, 1));
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("budget"), std::string::npos);
}

TEST(InterpTest, ShortCircuitPreventsOobEvaluation) {
  // gid < n && a[gid] -- the second operand must not evaluate when the
  // first is false (the guard idiom every benchmark uses).
  KernelBuilder kb("guard");
  Buf a = kb.buf_i32("a"), out = kb.buf_i32("out");
  Val n = kb.param_i32("n");
  Val gid = kb.global_id(0);
  kb.if_(gid < n && kb.load(a, gid) > 0, [&] { kb.store(out, gid, Val(1)); });
  std::vector<uint32_t> data = {5, 6};  // only 2 elements; launch is 4 wide
  std::vector<uint32_t> result(4, 0);
  Interpreter interp;
  auto status =
      interp.run(kb.build(), {KernelArg::buffer(&data), KernelArg::buffer(&result),
                              KernelArg::scalar_i32(2)},
                 NDRange::linear(4, 4));
  ASSERT_TRUE(status.is_ok()) << status.to_string();
  EXPECT_EQ(result, (std::vector<uint32_t>{1, 1, 0, 0}));
}

TEST(InterpTest, SimtMasksInNestedControlFlow) {
  KernelBuilder kb("masks");
  Buf out = kb.buf_i32("out");
  Val lid = kb.local_id(0);
  Val v = kb.let_("v", Val(0));
  kb.if_(lid < 4, [&] {
    kb.for_("i", Val(0), lid + 1, [&](Val) { kb.assign(v, v + 10); });
  }, [&] { kb.assign(v, 999); });
  kb.store(out, kb.global_id(0), v);
  std::vector<uint32_t> result(8, 0);
  Interpreter interp;
  ASSERT_TRUE(interp.run(kb.build(), {KernelArg::buffer(&result)}, NDRange::linear(8, 8)).is_ok());
  EXPECT_EQ(result, (std::vector<uint32_t>{10, 20, 30, 40, 999, 999, 999, 999}));
}

TEST(InterpTest, WhileReevaluatesCondition) {
  KernelBuilder kb("halving");
  Buf out = kb.buf_i32("out");
  Val v = kb.let_("v", Val(100));
  Val steps = kb.let_("steps", Val(0));
  kb.while_(v > 1, [&] {
    kb.assign(v, v / 2);
    kb.assign(steps, steps + 1);
  });
  kb.store(out, Val(0), steps);
  std::vector<uint32_t> result(1, 0);
  Interpreter interp;
  ASSERT_TRUE(interp.run(kb.build(), {KernelArg::buffer(&result)}, NDRange::linear(1, 1)).is_ok());
  EXPECT_EQ(result[0], 6u);  // 100 -> 50 -> 25 -> 12 -> 6 -> 3 -> 1
}

TEST(InterpTest, AtomicsAreSequentiallyConsistentPerItemOrder) {
  KernelBuilder kb("atomic_order");
  Buf counter = kb.buf_i32("counter"), order = kb.buf_i32("order");
  Val ticket = kb.atomic_ret(AtomicOp::kAdd, counter, Val(0), Val(1));
  kb.store(order, kb.global_id(0), ticket);
  std::vector<uint32_t> counter_data(1, 0), order_data(8, 0);
  Interpreter interp;
  ASSERT_TRUE(interp
                  .run(kb.build(), {KernelArg::buffer(&counter_data), KernelArg::buffer(&order_data)},
                       NDRange::linear(8, 8))
                  .is_ok());
  EXPECT_EQ(counter_data[0], 8u);
  for (uint32_t i = 0; i < 8; ++i) EXPECT_EQ(order_data[i], i);  // item order
}

TEST(InterpTest, AtomicCmpxchg) {
  KernelBuilder kb("cas");
  kb.buf_i32("slot");  // buffer 0, which the raw statement below addresses
  auto stmt = std::make_shared<Stmt>();
  stmt->kind = StmtKind::kAtomic;
  stmt->atomic = AtomicOp::kCmpxchg;
  stmt->buffer = 0;
  stmt->a = make_ci32(0);
  stmt->b = make_ci32(42);  // desired
  stmt->c = make_ci32(7);   // expected
  Kernel kernel = kb.build();
  kernel.body.push_back(stmt);
  std::vector<uint32_t> data = {7};
  Interpreter interp;
  ASSERT_TRUE(interp.run(kernel, {KernelArg::buffer(&data)}, NDRange::linear(1, 1)).is_ok());
  EXPECT_EQ(data[0], 42u);
  data[0] = 9;  // expected mismatch: unchanged
  ASSERT_TRUE(interp.run(kernel, {KernelArg::buffer(&data)}, NDRange::linear(1, 1)).is_ok());
  EXPECT_EQ(data[0], 9u);
}

TEST(InterpTest, PrintfFormatting) {
  KernelBuilder kb("printer");
  kb.print("i=%d u=%u x=%x f=%f pct=%% end\n", {Val(-3), Val(7), Val(255), Val(1.5f)});
  std::vector<std::string> lines;
  InterpOptions options;
  options.print_sink = [&](const std::string& line) { lines.push_back(line); };
  Interpreter interp(options);
  ASSERT_TRUE(interp.run(kb.build(), {}, NDRange::linear(1, 1)).is_ok());
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "i=-3 u=7 x=ff f=1.500000 pct=% end");
}

TEST(InterpTest, LocalMemoryIsPerGroup) {
  // Each group writes its group id into local memory; a stale value from a
  // previous group would corrupt the output.
  KernelBuilder kb("pergroup");
  Buf out = kb.buf_i32("out");
  Buf tile = kb.local_i32("tile", 4);
  Val lid = kb.local_id(0);
  kb.if_(lid == 0, [&] { kb.store(tile, Val(0), kb.group_id(0) + 100); });
  kb.barrier();
  kb.store(out, kb.global_id(0), kb.load(tile, Val(0)));
  std::vector<uint32_t> result(16, 0);
  Interpreter interp;
  ASSERT_TRUE(interp.run(kb.build(), {KernelArg::buffer(&result)}, NDRange::linear(16, 4)).is_ok());
  for (uint32_t i = 0; i < 16; ++i) EXPECT_EQ(result[i], 100 + i / 4) << i;
}

TEST(InterpTest, InstrumentationCountsDynamicAccesses) {
  KernelBuilder kb("instr");
  Buf a = kb.buf_f32("a"), out = kb.buf_f32("out");
  Val gid = kb.global_id(0);
  Val acc = kb.let_("acc", Val(0.0f));
  kb.for_("i", Val(0), Val(4), [&](Val i) { kb.assign(acc, acc + kb.load(a, gid + i)); });
  kb.store(out, gid, acc);
  uint64_t loads = 0, stores = 0;
  InterpOptions options;
  options.on_load = [&](const Expr*) { ++loads; };
  options.on_store = [&](const Stmt*) { ++stores; };
  Interpreter interp(options);
  std::vector<uint32_t> data(16, f2u(1.0f)), result(8, 0);
  ASSERT_TRUE(interp
                  .run(kb.build(), {KernelArg::buffer(&data), KernelArg::buffer(&result)},
                       NDRange::linear(8, 8))
                  .is_ok());
  EXPECT_EQ(loads, 8u * 4u);
  EXPECT_EQ(stores, 8u);
}

TEST(InterpTest, ArgumentValidation) {
  KernelBuilder kb("args");
  kb.buf_i32("buf");
  kb.param_i32("n");
  Kernel kernel = kb.build();
  Interpreter interp;
  std::vector<uint32_t> data(4);
  // Wrong count.
  EXPECT_FALSE(interp.run(kernel, {KernelArg::buffer(&data)}, NDRange::linear(1, 1)).is_ok());
  // Scalar passed for buffer.
  EXPECT_FALSE(interp
                   .run(kernel, {KernelArg::scalar_i32(1), KernelArg::scalar_i32(1)},
                        NDRange::linear(1, 1))
                   .is_ok());
  // Indivisible NDRange.
  NDRange bad = NDRange::linear(10, 4);
  EXPECT_FALSE(
      interp.run(kernel, {KernelArg::buffer(&data), KernelArg::scalar_i32(1)}, bad).is_ok());
}

TEST(InterpTest, SelectEvaluatesLazilyPerItem) {
  KernelBuilder kb("sel");
  Buf a = kb.buf_i32("a"), out = kb.buf_i32("out");
  Val gid = kb.global_id(0);
  // Guarded gather: index clamped by select; both arms valid here, values
  // must pick per item.
  kb.store(out, gid, vselect(gid < 2, kb.load(a, gid), Val(-1)));
  std::vector<uint32_t> data = {11, 22};
  std::vector<uint32_t> result(4, 0);
  Interpreter interp;
  ASSERT_TRUE(interp
                  .run(kb.build(), {KernelArg::buffer(&data), KernelArg::buffer(&result)},
                       NDRange::linear(4, 4))
                  .is_ok());
  EXPECT_EQ(result, (std::vector<uint32_t>{11, 22, 0xFFFFFFFFu, 0xFFFFFFFFu}));
}

TEST(InterpTest, IntegerDivisionMatchesRiscv) {
  KernelBuilder kb("divs");
  Buf out = kb.buf_i32("out");
  kb.store(out, Val(0), Val(7) / Val(0));                  // -1
  kb.store(out, Val(1), Val(7) % Val(0));                  // 7
  kb.store(out, Val(2), Val(-2147483647 - 1) / Val(-1));   // INT_MIN
  kb.store(out, Val(3), Val(-2147483647 - 1) % Val(-1));   // 0
  std::vector<uint32_t> result(4, 9);
  Interpreter interp;
  ASSERT_TRUE(interp.run(kb.build(), {KernelArg::buffer(&result)}, NDRange::linear(1, 1)).is_ok());
  EXPECT_EQ(static_cast<int32_t>(result[0]), -1);
  EXPECT_EQ(static_cast<int32_t>(result[1]), 7);
  EXPECT_EQ(result[2], 0x80000000u);
  EXPECT_EQ(result[3], 0u);
}

}  // namespace
}  // namespace fgpu::kir
