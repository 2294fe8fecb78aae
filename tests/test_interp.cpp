// Reference-interpreter tests: SIMT semantics (masks, loops, barriers),
// dynamic safety checks (out-of-bounds, barrier divergence, runaway
// guards), atomics, printf formatting, and the work and per-site counts.
//
// The pinned counts (node visits, lane ops, per-site accesses) and error
// texts below are those of per-item evaluation order. They were measured
// on the tree-walking evaluator the flat program replaced, so they prove
// the program visits the same nodes with the same lanes in the same order.
#include <gtest/gtest.h>

#include "common/bits.hpp"
#include "kir/build.hpp"
#include "kir/interp.hpp"

namespace fgpu::kir {
namespace {

// Executed per-item accesses of the program's sites of one kind on one
// buffer in the interpreter's last run.
uint64_t site_count(const Program& program, const Interpreter& interp, bool is_store, int buffer) {
  uint64_t total = 0;
  for (size_t i = 0; i < program.sites.size(); ++i) {
    const ProgramSite& site = program.sites[i];
    if (site.is_store == is_store && site.buffer == buffer) total += interp.site_counts()[i];
  }
  return total;
}

struct Work {
  uint64_t node_visits, lane_ops, loads, stores;
};

void expect_work(const Interpreter& interp, const Work& want) {
  EXPECT_EQ(interp.work().launches, 1u);
  EXPECT_EQ(interp.work().node_visits, want.node_visits);
  EXPECT_EQ(interp.work().lane_ops, want.lane_ops);
  EXPECT_EQ(interp.work().loads, want.loads);
  EXPECT_EQ(interp.work().stores, want.stores);
}

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
  const Kernel kernel = kb.build();
  const Program program(kernel);
  Interpreter interp;
  std::vector<uint32_t> data(16, f2u(1.0f)), result(8, 0);
  ASSERT_TRUE(interp
                  .run(program, {KernelArg::buffer(&data), KernelArg::buffer(&result)},
                       NDRange::linear(8, 8))
                  .is_ok());
  EXPECT_EQ(site_count(program, interp, false, 0), 8u * 4u);
  EXPECT_EQ(site_count(program, interp, true, 1), 8u);
  EXPECT_EQ(interp.work().loads, 8u * 4u);
  EXPECT_EQ(interp.work().stores, 8u);
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

TEST(InterpCountsTest, ShortCircuitNarrowsTheRightOperand) {
  KernelBuilder kb("short_circuit");
  Buf a = kb.buf_i32("a"), out = kb.buf_i32("out");
  Val n = kb.param_i32("n");
  Val gid = kb.global_id(0);
  kb.store(out, gid, (gid < n && kb.load(a, gid) > 0) || kb.load(a, gid % n) == 0);
  const Kernel kernel = kb.build();
  const Program program(kernel);
  std::vector<uint32_t> a_data = {5, 0, 7, 0}, result(8, 9);
  Interpreter interp;
  ASSERT_TRUE(interp
                  .run(program, {KernelArg::buffer(&a_data), KernelArg::buffer(&result),
                                 KernelArg::scalar_i32(4)},
                       NDRange::linear(8, 8))
                  .is_ok());
  EXPECT_EQ(result, (std::vector<uint32_t>{1, 1, 1, 1, 0, 1, 0, 1}));
  expect_work(interp, {16, 100, 10, 8});
  EXPECT_EQ(site_count(program, interp, false, 0), 10u);  // 4 guarded + 6 fallback loads
  EXPECT_EQ(site_count(program, interp, true, 1), 8u);
}

TEST(InterpCountsTest, SelectEvaluatesOneArmPerLane) {
  KernelBuilder kb("select");
  Buf a = kb.buf_i32("a"), b = kb.buf_i32("b"), out = kb.buf_i32("out");
  Val gid = kb.global_id(0);
  kb.store(out, gid, vselect(gid < 3, kb.load(a, gid), kb.load(b, gid) * 2));
  const Kernel kernel = kb.build();
  const Program program(kernel);
  std::vector<uint32_t> a_data = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<uint32_t> b_data = {10, 20, 30, 40, 50, 60, 70, 80}, result(8, 0);
  Interpreter interp;
  ASSERT_TRUE(interp
                  .run(program,
                       {KernelArg::buffer(&a_data), KernelArg::buffer(&b_data),
                        KernelArg::buffer(&result)},
                       NDRange::linear(8, 8))
                  .is_ok());
  EXPECT_EQ(result, (std::vector<uint32_t>{1, 2, 3, 80, 100, 120, 140, 160}));
  expect_work(interp, {11, 66, 8, 8});
  EXPECT_EQ(site_count(program, interp, false, 0), 3u);
  EXPECT_EQ(site_count(program, interp, false, 1), 5u);
}

TEST(InterpCountsTest, ForAndWhileWithPerLaneTripCounts) {
  KernelBuilder kb("loops");
  Buf a = kb.buf_i32("a"), out = kb.buf_i32("out");
  Val lid = kb.local_id(0);
  Val acc = kb.let_("acc", Val(0));
  kb.for_("i", Val(0), lid + 1, [&](Val i) { kb.assign(acc, acc + kb.load(a, i)); });
  Val v = kb.let_("v", kb.global_id(0) * 10 + 1);
  kb.while_(v > 1, [&] {
    kb.assign(v, v / 2);
    kb.assign(acc, acc + 1);
  });
  kb.store(out, kb.global_id(0), acc);
  const Kernel kernel = kb.build();
  const Program program(kernel);
  std::vector<uint32_t> a_data = {1, 2, 3, 4, 5, 6, 7, 8}, result(8, 0);
  Interpreter interp;
  ASSERT_TRUE(interp
                  .run(program, {KernelArg::buffer(&a_data), KernelArg::buffer(&result)},
                       NDRange::linear(8, 4))
                  .is_ok());
  EXPECT_EQ(result, (std::vector<uint32_t>{1, 6, 10, 14, 6, 8, 11, 16}));
  expect_work(interp, {184, 628, 20, 8});
  EXPECT_EQ(site_count(program, interp, false, 0), 20u);
}

TEST(InterpCountsTest, AliasingStoresRunItemByItem) {
  // Both stores read what they write: the first through the same param,
  // the second through another param bound to the same vector. Each item
  // must see the previous item's write.
  KernelBuilder kb("alias");
  Buf a = kb.buf_i32("a"), b = kb.buf_i32("b");
  Val gid = kb.global_id(0);
  kb.store(a, gid + 1, kb.load(a, gid) + 1);
  kb.store(b, gid + 1, kb.load(a, gid) * 2);
  const Kernel kernel = kb.build();
  const Program program(kernel);
  std::vector<uint32_t> data(9, 0);
  data[0] = 1;
  Interpreter interp;
  ASSERT_TRUE(interp.run(program, {KernelArg::buffer(&data), KernelArg::buffer(&data)},
                         NDRange::linear(8, 8))
                  .is_ok());
  EXPECT_EQ(data, (std::vector<uint32_t>{1, 2, 4, 8, 16, 32, 64, 128, 256}));
  expect_work(interp, {112, 112, 16, 16});  // one lane per node visit
  EXPECT_EQ(site_count(program, interp, false, 0), 16u);
  EXPECT_EQ(site_count(program, interp, true, 0), 8u);
  EXPECT_EQ(site_count(program, interp, true, 1), 8u);
}

TEST(InterpCountsTest, AtomicsUnderDivergence) {
  KernelBuilder kb("atomics");
  Buf counter = kb.buf_i32("counter"), order = kb.buf_i32("order");
  Val gid = kb.global_id(0);
  kb.if_(gid % 2 == 0, [&] {
    Val ticket = kb.atomic_ret(AtomicOp::kAdd, counter, Val(0), gid + 1);
    kb.store(order, gid, ticket);
  });
  kb.atomic(AtomicOp::kMax, counter, Val(1), gid);
  const Kernel kernel = kb.build();
  const Program program(kernel);
  std::vector<uint32_t> counter_data(2, 0), order_data(8, 0);
  Interpreter interp;
  ASSERT_TRUE(interp
                  .run(program,
                       {KernelArg::buffer(&counter_data), KernelArg::buffer(&order_data)},
                       NDRange::linear(8, 8))
                  .is_ok());
  EXPECT_EQ(counter_data, (std::vector<uint32_t>{16, 7}));
  EXPECT_EQ(order_data, (std::vector<uint32_t>{0, 0, 1, 0, 4, 0, 9, 0}));
  expect_work(interp, {39, 80, 0, 16});
  EXPECT_EQ(site_count(program, interp, true, 0), 12u);  // 4 tickets + 8 max updates
  EXPECT_EQ(site_count(program, interp, true, 1), 4u);
}

TEST(InterpCountsTest, PrintfEvaluatesArgumentsPerItem) {
  KernelBuilder kb("printer");
  Val gid = kb.global_id(0);
  kb.if_(gid < 3, [&] { kb.print("g=%d twice=%d\n", {gid, gid * 2}); });
  std::vector<std::string> lines;
  InterpOptions options;
  options.print_sink = [&](const std::string& line) { lines.push_back(line); };
  Interpreter interp(options);
  ASSERT_TRUE(interp.run(kb.build(), {}, NDRange::linear(8, 8)).is_ok());
  EXPECT_EQ(lines, (std::vector<std::string>{"g=0 twice=0", "g=1 twice=2", "g=2 twice=4"}));
  expect_work(interp, {15, 36, 0, 0});
}

TEST(InterpErrorTest, UndefinedVariable) {
  KernelBuilder kb("undef");
  Buf out = kb.buf_i32("out");
  kb.store(out, Val(0), Val(make_var("ghost", Scalar::kI32)) + 1);
  std::vector<uint32_t> result(1, 0);
  Interpreter interp;
  const Status status = interp.run(kb.build(), {KernelArg::buffer(&result)}, NDRange::linear(4, 4));
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.kind(), ErrorKind::kRuntimeError);
  EXPECT_EQ(status.message(), "undef: use of undefined variable 'ghost'");
  expect_work(interp, {3, 12, 0, 0});
}

TEST(InterpErrorTest, ScalarReadOfBufferParam) {
  KernelBuilder kb("bufscalar");
  Buf out = kb.buf_i32("out");
  auto param = std::make_shared<Expr>();
  param->kind = ExprKind::kParam;
  param->index = 0;  // the buffer `out`, read as a scalar
  kb.store(out, Val(0), Val(ExprPtr(param)));
  std::vector<uint32_t> result(1, 0);
  Interpreter interp;
  const Status status = interp.run(kb.build(), {KernelArg::buffer(&result)}, NDRange::linear(4, 4));
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.message(), "bufscalar: scalar read of buffer param");
  expect_work(interp, {2, 8, 0, 0});
}

TEST(InterpErrorTest, BudgetExhaustedInsideFor) {
  KernelBuilder kb("runaway_for");
  Buf out = kb.buf_i32("out");
  Val acc = kb.let_("acc", Val(0));
  kb.for_("i", Val(0), Val(1 << 30), [&](Val i) { kb.assign(acc, acc + i); });
  kb.store(out, kb.global_id(0), acc);
  std::vector<uint32_t> result(4, 0);
  InterpOptions options;
  options.max_statements = 1000;
  Interpreter interp(options);
  const Status status = interp.run(kb.build(), {KernelArg::buffer(&result)}, NDRange::linear(4, 4));
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.message(), "runaway_for: statement budget exceeded (runaway kernel?)");
  expect_work(interp, {2497, 9988, 0, 0});
}

TEST(InterpErrorTest, BudgetExhaustedInsideWhile) {
  KernelBuilder kb("runaway_while");
  Val go = kb.let_("go", kb.global_id(0) + 1);
  kb.while_(go > 0, [&] { kb.assign(go, go + 1); });
  InterpOptions options;
  options.max_statements = 1000;
  Interpreter interp(options);
  const Status status = interp.run(kb.build(), {}, NDRange::linear(4, 4));
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.message(), "runaway_while: statement budget exceeded (runaway kernel?)");
  expect_work(interp, {2997, 11988, 0, 0});
}

TEST(InterpErrorTest, OutOfBoundsInMiddleLaneKeepsEarlierStores) {
  KernelBuilder kb("oob_mid");
  Buf out = kb.buf_i32("out");
  Val gid = kb.global_id(0);
  kb.store(out, gid * 2, gid + 100);
  std::vector<uint32_t> result(7, 0);
  Interpreter interp;
  const Status status = interp.run(kb.build(), {KernelArg::buffer(&result)}, NDRange::linear(8, 8));
  ASSERT_FALSE(status.is_ok());
  EXPECT_EQ(status.message(), "oob_mid: out-of-bounds access: out[8] size 7");
  EXPECT_EQ(result, (std::vector<uint32_t>{100, 0, 101, 0, 102, 0, 103}));
  expect_work(interp, {6, 48, 0, 4});
}

TEST(InterpTest, ProgramIsReusableAcrossLaunches) {
  // One program, several launches and geometries: nothing from a previous
  // run (variables, __local contents, counts) leaks into the next.
  KernelBuilder kb("reuse");
  Buf out = kb.buf_i32("out");
  Buf tile = kb.local_i32("tile", 8);
  Val lid = kb.local_id(0);
  kb.if_(lid == 0, [&] { kb.store(tile, Val(0), kb.group_id(0) + kb.load(tile, Val(0))); });
  kb.barrier();
  kb.store(out, kb.global_id(0), kb.load(tile, Val(0)) + kb.local_size(0));
  const Kernel kernel = kb.build();
  const Program program(kernel);
  Interpreter interp;
  for (uint32_t wg : {4u, 8u, 2u}) {
    std::vector<uint32_t> result(16, 0);
    ASSERT_TRUE(interp.run(program, {KernelArg::buffer(&result)}, NDRange::linear(16, wg)).is_ok());
    for (uint32_t i = 0; i < 16; ++i) {
      EXPECT_EQ(result[i], i / wg + wg) << "wg " << wg << " item " << i;
    }
    // Buffer 0 names both `out` (param 0) and `tile` (__local slot 0).
    EXPECT_EQ(site_count(program, interp, true, 0), 16u + 16u / wg) << wg;
  }
  EXPECT_EQ(interp.work().launches, 3u);
}

TEST(InterpTest, InactiveLaneGarbageIsHarmless) {
  // Lanes outside a branch still flow through element-wise ops; the values
  // they carry (INT_MIN, huge floats) must not trap or leak into results.
  KernelBuilder kb("garbage");
  Buf in = kb.buf_i32("in"), out = kb.buf_i32("out");
  Val gid = kb.global_id(0);
  Val x = kb.let_("x", kb.load(in, gid));
  kb.if_(gid == 0, [&] {
    Val y = -x + vabs(x) + x / Val(-1) + x % Val(-1) + to_i32(bitcast_f32(x) * Val(1e30f));
    kb.store(out, gid, y);
  });
  std::vector<uint32_t> in_data = {3, 0x80000000u, 0x7F800000u, 0xFFFFFFFFu};
  std::vector<uint32_t> result(4, 0);
  Interpreter interp;
  ASSERT_TRUE(interp.run(kb.build(), {KernelArg::buffer(&in_data), KernelArg::buffer(&result)},
                         NDRange::linear(4, 4))
                  .is_ok());
  // x = 3: -3 + 3 - 3 + 0 + int(4.2e-45f * 1e30f) = -3 + 0.
  EXPECT_EQ(static_cast<int32_t>(result[0]), -3);
  EXPECT_EQ(result[1], 0u);
  EXPECT_EQ(result[2], 0u);
  EXPECT_EQ(result[3], 0u);
}

}  // namespace
}  // namespace fgpu::kir
