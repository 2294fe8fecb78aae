// End-to-end kernel compiler tests: build KIR kernels, compile them to
// Vortex binaries, run them on the cycle-level simulator through the
// runtime, and compare results against the KIR reference interpreter.
#include <gtest/gtest.h>

#include <cmath>

#include "common/bits.hpp"
#include "common/rng.hpp"
#include "kir/build.hpp"
#include "kir/interp.hpp"
#include "kir/passes.hpp"
#include "runtime/vortex_device.hpp"

namespace fgpu {
namespace {

using kir::Buf;
using kir::KernelBuilder;
using kir::NDRange;
using kir::Scalar;
using kir::Val;

// Runs `kernel` on both the interpreter and the soft GPU and checks that
// every output buffer matches bit for bit (integer semantics are identical;
// float kernels below only use ops that match exactly).
struct BufferSpec {
  std::vector<uint32_t> host;  // initial contents
  bool check = true;           // compare after execution
};

void run_and_compare(const kir::Kernel& kernel, std::vector<BufferSpec> buffers,
                     std::vector<vcl::Arg> scalars_in_order, const NDRange& ndrange,
                     vortex::Config config = vortex::Config::with(2, 4, 8)) {
  // Reference: interpreter over expanded copy (same lowering both sides).
  kir::Module module;
  module.name = "test";
  module.kernels.push_back(kernel);
  kir::expand_builtins(module.kernels[0]);

  std::vector<std::vector<uint32_t>> ref_data;
  ref_data.reserve(buffers.size());
  for (const auto& spec : buffers) ref_data.push_back(spec.host);

  std::vector<kir::KernelArg> ref_args;
  size_t buffer_cursor = 0, scalar_cursor = 0;
  for (const auto& param : kernel.params) {
    if (param.is_buffer) {
      ref_args.push_back(kir::KernelArg::buffer(&ref_data[buffer_cursor++]));
    } else {
      const vcl::Arg& arg = scalars_in_order[scalar_cursor++];
      if (const auto* iv = std::get_if<int32_t>(&arg)) {
        ref_args.push_back(kir::KernelArg::scalar_i32(*iv));
      } else {
        ref_args.push_back(kir::KernelArg::scalar_f32(std::get<float>(arg)));
      }
    }
  }
  kir::Interpreter interp;
  auto ref_status = interp.run(module.kernels[0], ref_args, ndrange);
  ASSERT_TRUE(ref_status.is_ok()) << ref_status.to_string();

  // Device execution.
  vcl::VortexDevice device(config);
  kir::Module dev_module;
  dev_module.name = "test";
  dev_module.kernels.push_back(kernel);
  auto build = device.build(dev_module);
  ASSERT_TRUE(build.is_ok()) << build.to_string();

  std::vector<vcl::Buffer> dev_buffers;
  for (const auto& spec : buffers) dev_buffers.push_back(device.upload(spec.host));
  std::vector<vcl::Arg> args;
  buffer_cursor = scalar_cursor = 0;
  for (const auto& param : kernel.params) {
    if (param.is_buffer) {
      args.push_back(dev_buffers[buffer_cursor++]);
    } else {
      args.push_back(scalars_in_order[scalar_cursor++]);
    }
  }
  auto stats = device.launch(kernel.name, args, ndrange);
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_GT(stats->device_cycles, 0u);

  for (size_t i = 0; i < buffers.size(); ++i) {
    if (!buffers[i].check) continue;
    auto device_out = device.download<uint32_t>(dev_buffers[i]);
    ASSERT_EQ(device_out.size(), ref_data[i].size());
    for (size_t j = 0; j < device_out.size(); ++j) {
      ASSERT_EQ(device_out[j], ref_data[i][j])
          << kernel.name << ": buffer " << i << " element " << j << " device="
          << u2f(device_out[j]) << " ref=" << u2f(ref_data[i][j]);
    }
  }
}

std::vector<uint32_t> random_floats(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> out(n);
  for (auto& v : out) v = f2u(rng.next_float(-10.0f, 10.0f));
  return out;
}

std::vector<uint32_t> random_ints(size_t n, uint64_t seed, int32_t lo, int32_t hi) {
  Rng rng(seed);
  std::vector<uint32_t> out(n);
  for (auto& v : out) v = static_cast<uint32_t>(rng.next_range(lo, hi));
  return out;
}

TEST(CodegenTest, VecAdd) {
  KernelBuilder kb("vecadd");
  Buf a = kb.buf_f32("a"), b = kb.buf_f32("b"), c = kb.buf_f32("c");
  Val n = kb.param_i32("n");
  Val gid = kb.global_id(0);
  kb.if_(gid < n, [&] { kb.store(c, gid, kb.load(a, gid) + kb.load(b, gid)); });
  const uint32_t count = 257;  // deliberately not a multiple of the launch
  run_and_compare(kb.build(),
                  {{random_floats(count, 1)}, {random_floats(count, 2)},
                   {std::vector<uint32_t>(count, 0)}},
                  {static_cast<int32_t>(count)}, NDRange::linear(320, 64));
}

TEST(CodegenTest, IntegerOps) {
  KernelBuilder kb("intops");
  Buf a = kb.buf_i32("a"), b = kb.buf_i32("b"), out = kb.buf_i32("out");
  Val gid = kb.global_id(0);
  Val x = kb.let_("x", kb.load(a, gid));
  Val y = kb.let_("y", kb.load(b, gid));
  // A pile of integer operators, combined so every lane output is distinct.
  Val r = kb.let_("r", (x + y) ^ (x - y));
  kb.assign(r, r + (x * y));
  kb.assign(r, r + x / (y | 1));
  kb.assign(r, r + x % (y | 1));
  kb.assign(r, r + (x << (y & 7)));
  kb.assign(r, r + (x >> 3));
  kb.assign(r, r + vmin(x, y) * 3 + vmax(x, y));
  kb.assign(r, r + vselect(x < y, x & y, x | y));
  kb.assign(r, r + vabs(x - y) + (-y));
  kb.assign(r, r + (x <= y) + (x > y) * 2 + (x >= y) * 4 + (x == y) * 8 + (x != y) * 16);
  kb.assign(r, r + ((x > 0 && y > 0) || (x < -5)));
  kb.assign(r, r + !x);
  kb.store(out, gid, r);
  const uint32_t n = 128;
  run_and_compare(kb.build(),
                  {{random_ints(n, 3, -1000, 1000)}, {random_ints(n, 4, -50, 50)},
                   {std::vector<uint32_t>(n, 0)}},
                  {}, NDRange::linear(n, 32));
}

TEST(CodegenTest, DivergentIfElse) {
  KernelBuilder kb("diverge");
  Buf data = kb.buf_i32("data"), out = kb.buf_i32("out");
  Val gid = kb.global_id(0);
  Val v = kb.let_("v", kb.load(data, gid));
  kb.if_(
      (v & 1) == 1,
      [&] {
        Val t = kb.let_("t", v * 3 + 1);
        kb.store(out, gid, t);
      },
      [&] { kb.store(out, gid, v / 2); });
  const uint32_t n = 128;
  run_and_compare(kb.build(), {{random_ints(n, 5, 0, 1 << 20)}, {std::vector<uint32_t>(n, 0)}},
                  {}, NDRange::linear(n, 64));
}

TEST(CodegenTest, NestedDivergence) {
  KernelBuilder kb("nested");
  Buf data = kb.buf_i32("data"), out = kb.buf_i32("out");
  Val gid = kb.global_id(0);
  Val v = kb.let_("v", kb.load(data, gid));
  kb.if_(
      v > 0,
      [&] {
        kb.if_((v & 1) == 0, [&] { kb.store(out, gid, v * 10); },
               [&] { kb.store(out, gid, v * 100); });
      },
      [&] {
        kb.if_(v < -10, [&] { kb.store(out, gid, 0 - v); }, [&] { kb.store(out, gid, 7); });
      });
  const uint32_t n = 192;
  run_and_compare(kb.build(), {{random_ints(n, 6, -100, 100)}, {std::vector<uint32_t>(n, 0)}},
                  {}, NDRange::linear(n, 64));
}

TEST(CodegenTest, DivergentLoopTripCounts) {
  // Each item loops a data-dependent number of times (PRED path).
  KernelBuilder kb("divloop");
  Buf trips = kb.buf_i32("trips"), out = kb.buf_i32("out");
  Val gid = kb.global_id(0);
  Val n = kb.let_("n", kb.load(trips, gid));
  Val acc = kb.let_("acc", Val(0));
  kb.for_("i", Val(0), n, [&](Val i) { kb.assign(acc, acc + i * i); });
  kb.store(out, gid, acc);
  const uint32_t count = 96;
  run_and_compare(kb.build(), {{random_ints(count, 7, 0, 24)}, {std::vector<uint32_t>(count, 0)}},
                  {}, NDRange::linear(count, 32));
}

TEST(CodegenTest, WhileLoopCollatz) {
  KernelBuilder kb("collatz");
  Buf data = kb.buf_i32("data"), out = kb.buf_i32("out");
  Val gid = kb.global_id(0);
  Val v = kb.let_("v", kb.load(data, gid));
  Val steps = kb.let_("steps", Val(0));
  kb.while_(v > 1 && steps < 64, [&] {
    kb.if_((v & 1) == 0, [&] { kb.assign(v, v / 2); }, [&] { kb.assign(v, v * 3 + 1); });
    kb.assign(steps, steps + 1);
  });
  kb.store(out, gid, steps);
  const uint32_t n = 64;
  run_and_compare(kb.build(), {{random_ints(n, 8, 1, 200)}, {std::vector<uint32_t>(n, 0)}}, {},
                  NDRange::linear(n, 32));
}

TEST(CodegenTest, UniformLoopMatvecRow) {
  // Uniform inner loop over a scalar bound: dot product per row.
  KernelBuilder kb("matvec");
  Buf m = kb.buf_f32("m"), x = kb.buf_f32("x"), y = kb.buf_f32("y");
  Val cols = kb.param_i32("cols");
  Val row = kb.global_id(0);
  Val acc = kb.let_("acc", Val(0.0f));
  kb.for_("j", Val(0), cols, [&](Val j) {
    kb.assign(acc, acc + kb.load(m, row * cols + j) * kb.load(x, j));
  });
  kb.store(y, row, acc);
  const uint32_t rows = 32, colc = 17;
  run_and_compare(kb.build(),
                  {{random_floats(rows * colc, 9)}, {random_floats(colc, 10)},
                   {std::vector<uint32_t>(rows, 0)}},
                  {static_cast<int32_t>(colc)}, NDRange::linear(rows, 16));
}

TEST(CodegenTest, Transpose2D) {
  KernelBuilder kb("transpose");
  Buf in = kb.buf_f32("in"), out = kb.buf_f32("out");
  Val w = kb.param_i32("w");
  Val gx = kb.global_id(0), gy = kb.global_id(1);
  kb.store(out, gx * w + gy, kb.load(in, gy * w + gx));
  const uint32_t n = 32;
  run_and_compare(kb.build(),
                  {{random_floats(n * n, 11)}, {std::vector<uint32_t>(n * n, 0)}},
                  {static_cast<int32_t>(n)}, NDRange::grid2d(n, n, 8, 8));
}

TEST(CodegenTest, BarrierLocalReduction) {
  // Classic work-group reduction through __local memory with barriers.
  KernelBuilder kb("reduce");
  Buf in = kb.buf_f32("in"), out = kb.buf_f32("out");
  Buf tile = kb.local_f32("tile", 64);
  Val lid = kb.local_id(0), grp = kb.group_id(0);
  kb.store(tile, lid, kb.load(in, kb.global_id(0)));
  kb.barrier();
  Val stride = kb.let_("stride", Val(32));
  kb.while_(stride > 0, [&] {
    kb.if_(lid < stride,
           [&] { kb.store(tile, lid, kb.load(tile, lid) + kb.load(tile, lid + stride)); });
    kb.barrier();
    kb.assign(stride, stride >> 1);
  });
  kb.if_(lid == 0, [&] { kb.store(out, grp, kb.load(tile, 0)); });
  const uint32_t n = 256;
  run_and_compare(kb.build(),
                  {{random_floats(n, 12)}, {std::vector<uint32_t>(n / 64, 0)}}, {},
                  NDRange::linear(n, 64), vortex::Config::with(2, 8, 8));
}

TEST(CodegenTest, AtomicHistogram) {
  KernelBuilder kb("hist");
  Buf keys = kb.buf_i32("keys"), bins = kb.buf_i32("bins");
  Val gid = kb.global_id(0);
  kb.atomic_add(bins, kb.load(keys, gid) & 15, Val(1));
  const uint32_t n = 256;
  run_and_compare(kb.build(),
                  {{random_ints(n, 13, 0, 1 << 20)}, {std::vector<uint32_t>(16, 0)}}, {},
                  NDRange::linear(n, 64));
}

TEST(CodegenTest, AtomicMinMaxExtremes) {
  KernelBuilder kb("minmax");
  Buf data = kb.buf_i32("data"), out = kb.buf_i32("out");
  Val gid = kb.global_id(0);
  Val v = kb.let_("v", kb.load(data, gid));
  kb.atomic_min(out, Val(0), v);
  kb.atomic_max(out, Val(1), v);
  const uint32_t n = 128;
  std::vector<uint32_t> init = {0x7FFFFFFFu, 0x80000000u};
  run_and_compare(kb.build(), {{random_ints(n, 14, -10000, 10000)}, {init}}, {},
                  NDRange::linear(n, 64));
}

TEST(CodegenTest, MathBuiltins) {
  // exp/log/sqrt/floor expand to identical KIR for interp and device,
  // so results must match bit for bit.
  KernelBuilder kb("math");
  Buf in = kb.buf_f32("in"), out = kb.buf_f32("out");
  Val gid = kb.global_id(0);
  Val x = kb.let_("x", kb.load(in, gid));
  Val pos = kb.let_("pos", vabs(x) + 0.125f);
  kb.store(out, gid * 4 + 0, vexp(x * 0.1f));
  kb.store(out, gid * 4 + 1, vlog(pos));
  kb.store(out, gid * 4 + 2, vsqrt(pos));
  kb.store(out, gid * 4 + 3, vfloor(x));
  const uint32_t n = 64;
  run_and_compare(kb.build(),
                  {{random_floats(n, 15)}, {std::vector<uint32_t>(n * 4, 0)}}, {},
                  NDRange::linear(n, 32));
}

TEST(CodegenTest, MathBuiltinsAccuracy) {
  // The polynomial expansions should track libm within ~1e-5 relative.
  KernelBuilder kb("mathacc");
  Buf in = kb.buf_f32("in"), out = kb.buf_f32("out");
  Val gid = kb.global_id(0);
  Val x = kb.let_("x", kb.load(in, gid));
  kb.store(out, gid * 2 + 0, vexp(x));
  kb.store(out, gid * 2 + 1, vlog(vabs(x) + 0.01f));
  kir::Kernel kernel = kb.build();
  kir::expand_builtins(kernel);

  const uint32_t n = 128;
  Rng rng(99);
  std::vector<uint32_t> input(n);
  for (auto& v : input) v = f2u(rng.next_float(-8.0f, 8.0f));
  std::vector<uint32_t> result(n * 2, 0);
  std::vector<kir::KernelArg> args = {kir::KernelArg::buffer(&input),
                                      kir::KernelArg::buffer(&result)};
  kir::Interpreter interp;
  ASSERT_TRUE(interp.run(kernel, args, NDRange::linear(n, 32)).is_ok());
  for (uint32_t i = 0; i < n; ++i) {
    const float x = u2f(input[i]);
    const float got_exp = u2f(result[i * 2]);
    const float got_log = u2f(result[i * 2 + 1]);
    EXPECT_NEAR(got_exp, std::exp(x), std::abs(std::exp(x)) * 2e-5 + 1e-7) << "x=" << x;
    EXPECT_NEAR(got_log, std::log(std::fabs(x) + 0.01f),
                std::abs(std::log(std::fabs(x) + 0.01f)) * 2e-5 + 1e-6)
        << "x=" << x;
  }
}

TEST(CodegenTest, RegisterPressureSpills) {
  // 40 live values force spilling; results must still be exact.
  KernelBuilder kb("spill");
  Buf in = kb.buf_i32("in"), out = kb.buf_i32("out");
  Val gid = kb.global_id(0);
  std::vector<Val> vals;
  for (int i = 0; i < 40; ++i) {
    const std::string n = std::to_string(i);  // lvalue: GCC 12 -Wrestrict
    vals.push_back(kb.let_("v" + n, kb.load(in, gid) * (i + 1) + i));
  }
  Val acc = kb.let_("acc", Val(0));
  for (int i = 0; i < 40; ++i) kb.assign(acc, acc + vals[static_cast<size_t>(i)]);
  kb.store(out, gid, acc);
  const uint32_t n = 64;

  // Confirm it actually spilled.
  auto compiled = codegen::compile_kernel(kb.build());
  ASSERT_TRUE(compiled.is_ok()) << compiled.status().to_string();
  EXPECT_GT(compiled->spill_slots, 0);

  run_and_compare(kb.build(), {{random_ints(n, 16, -100, 100)}, {std::vector<uint32_t>(n, 0)}},
                  {}, NDRange::linear(n, 32));
}

TEST(CodegenTest, PrintfReachesConsole) {
  KernelBuilder kb("printer");
  Val gid = kb.global_id(0);
  kb.print("item %d\n", {gid});
  kir::Module module;
  module.kernels.push_back(kb.build());
  vcl::VortexDevice device(vortex::Config::with(1, 1, 2));
  ASSERT_TRUE(device.build(module).is_ok());
  auto stats = device.launch("printer", {}, NDRange::linear(4, 2));
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_EQ(device.console().size(), 4u);
  // Order across warps is scheduling-dependent; check the set.
  std::vector<std::string> lines = device.console();
  std::sort(lines.begin(), lines.end());
  EXPECT_EQ(lines[0], "item 0");
  EXPECT_EQ(lines[3], "item 3");
}

TEST(CodegenTest, ScalarFloatParam) {
  KernelBuilder kb("saxpy");
  Buf x = kb.buf_f32("x"), y = kb.buf_f32("y");
  Val alpha = kb.param_f32("alpha");
  Val gid = kb.global_id(0);
  kb.store(y, gid, alpha * kb.load(x, gid) + kb.load(y, gid));
  const uint32_t n = 128;
  run_and_compare(kb.build(), {{random_floats(n, 17)}, {random_floats(n, 18)}}, {2.5f},
                  NDRange::linear(n, 64));
}

// The same kernel must produce identical results on every hardware shape —
// the property behind the paper's Fig. 7 sweep (only cycles may change).
class CodegenConfigSweep : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(CodegenConfigSweep, SameResultAnyConfig) {
  auto [cores, warps, threads] = GetParam();
  KernelBuilder kb("sweep");
  Buf a = kb.buf_i32("a"), out = kb.buf_i32("out");
  Val gid = kb.global_id(0);
  Val v = kb.let_("v", kb.load(a, gid));
  kb.if_((v & 3) == 0, [&] { kb.assign(v, v * 2); });
  kb.for_("i", Val(0), v & 7, [&](Val i) { kb.assign(v, v + i); });
  kb.store(out, gid, v);
  const uint32_t n = 192;
  run_and_compare(kb.build(), {{random_ints(n, 19, 0, 4096)}, {std::vector<uint32_t>(n, 0)}},
                  {}, NDRange::linear(n, 32),
                  vortex::Config::with(static_cast<uint32_t>(cores), static_cast<uint32_t>(warps),
                                       static_cast<uint32_t>(threads)));
}

INSTANTIATE_TEST_SUITE_P(Shapes, CodegenConfigSweep,
                         ::testing::Values(std::tuple{1, 1, 1}, std::tuple{1, 2, 4},
                                           std::tuple{1, 4, 8}, std::tuple{2, 2, 2},
                                           std::tuple{2, 8, 8}, std::tuple{4, 4, 4},
                                           std::tuple{4, 8, 16}, std::tuple{2, 16, 16}));

}  // namespace
}  // namespace fgpu
