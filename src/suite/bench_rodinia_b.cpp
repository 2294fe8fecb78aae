// Rodinia benchmarks, part B: backprop (the paper's Fig. 6 / Table II case
// study), lud, b+tree, hybridsort (atomics), lbm, dwt2d, lavamd, cutcp,
// spmv, blackscholes.
#include <algorithm>
#include <cmath>

#include "suite/common.hpp"

namespace fgpu::suite {

using kir::Buf;
using kir::KernelBuilder;
using kir::NDRange;
using kir::Val;

namespace {

// Back-propagation geometry (scaled from Rodinia's 16 to fit the soft GPU's
// 64-lane work-group dispatch; structure preserved).
constexpr uint32_t kBpBlock = 8;   // Rodinia BLOCK_SIZE / HEIGHT
constexpr uint32_t kBpIn = 512;    // input-layer nodes
constexpr uint32_t kBpHid = kBpBlock;  // hidden-layer nodes (= one block wide)

}  // namespace

// Exposed for the Table II / Fig. 6 bench: the adjust_weights kernel written
// to mirror the paper's Listing 1 (original device code) exactly.
kir::Kernel backprop_adjust_weights_kernel() {
  KernelBuilder kb("bpnn_adjust_weights");
  Buf delta = kb.buf_f32("delta");  // [hid+1]
  Buf ly = kb.buf_f32("ly");        // [in+1]
  Buf w = kb.buf_f32("w");          // [(in+1) x (hid+1)]
  Buf oldw = kb.buf_f32("oldw");
  Val hid = kb.param_i32("hid");
  const float kEta = 0.3f, kMomentum = 0.3f;
  Val gy = kb.group_id(1);
  Val ly_id = kb.local_id(1), lx_id = kb.local_id(0);
  // Listing 1, line for line:
  //   int index = (hid+1)*HEIGHT*gid.y + (hid+1)*lid.y + lid.x + 1 + (hid+1);
  Val index = kb.let_("index", (hid + 1) * static_cast<int32_t>(kBpBlock) * gy +
                                   (hid + 1) * ly_id + lx_id + 1 + (hid + 1));
  Val index_y = kb.let_("index_y", static_cast<int32_t>(kBpBlock) * gy + ly_id + 1);
  Val index_x = kb.let_("index_x", lx_id + 1);
  //   w[index] += ((ETA * delta[index_x] * ly[index_y]) + (MOMENTUM * oldw[index]));
  kb.store(w, index,
           kb.load(w, index) +
               ((kEta * kb.load(delta, index_x) * kb.load(ly, index_y)) +
                (kMomentum * kb.load(oldw, index))));
  //   oldw[index] = ((ETA * delta[index_x] * ly[index_y]) + (MOMENTUM * oldw[index]));
  kb.store(oldw, index,
           ((kEta * kb.load(delta, index_x) * kb.load(ly, index_y)) +
            (kMomentum * kb.load(oldw, index))));
  return kb.build();
}

// layerforward: work-group loads inputs + weights into __local memory and
// tree-reduces partial sums per hidden node (Rodinia bpnn_layerforward_ocl).
kir::Kernel backprop_layerforward_kernel() {
  KernelBuilder kb("bpnn_layerforward");
  Buf input = kb.buf_f32("input");            // [in+1]
  Buf weights = kb.buf_f32("weights");        // [(in+1) x (hid+1)]
  Buf partial = kb.buf_f32("partial_sum");    // [groups x hid]
  Val hid = kb.param_i32("hid");
  Buf input_node = kb.local_f32("input_node", kBpBlock);
  Buf weight_matrix = kb.local_f32("weight_matrix", kBpBlock * kBpBlock);
  Val tx = kb.local_id(0), ty = kb.local_id(1), by = kb.group_id(1);
  Val index = kb.let_("index", (hid + 1) * static_cast<int32_t>(kBpBlock) * by +
                                   (hid + 1) * ty + tx + 1 + (hid + 1));
  Val index_in = kb.let_("index_in", static_cast<int32_t>(kBpBlock) * by + ty + 1);
  kb.if_(tx == 0, [&] { kb.store(input_node, ty, kb.load(input, index_in)); });
  kb.barrier();
  kb.store(weight_matrix, ty * static_cast<int32_t>(kBpBlock) + tx,
           kb.load(weights, index) * kb.load(input_node, ty));
  kb.barrier();
  // Tree reduction over ty (power-of-two block).
  Val step = kb.let_("step", Val(1));
  kb.while_(step < static_cast<int32_t>(kBpBlock), [&] {
    Val two_step = kb.let_("two_step", step * 2);
    kb.if_(ty % two_step == 0, [&] {
      kb.store(weight_matrix, ty * static_cast<int32_t>(kBpBlock) + tx,
               kb.load(weight_matrix, ty * static_cast<int32_t>(kBpBlock) + tx) +
                   kb.load(weight_matrix, (ty + step) * static_cast<int32_t>(kBpBlock) + tx));
    });
    kb.barrier();
    kb.assign(step, two_step);
  });
  kb.if_(ty == 0, [&] {
    kb.store(partial, by * hid + tx, kb.load(weight_matrix, tx));
  });
  return kb.build();
}

Benchmark make_backprop() {
  Benchmark bench;
  bench.origin = "Rodinia";
  bench.notes = "layerforward (__local + barriers) + adjust_weights (paper Listing 1)";
  const uint32_t groups = kBpIn / kBpBlock;

  bench.module.kernels.push_back(backprop_layerforward_kernel());
  bench.module.kernels.push_back(backprop_adjust_weights_kernel());

  const uint32_t wsize = (kBpIn + 1) * (kBpHid + 1);
  bench.buffers = {ffill(kBpIn + 1, 0x101, 0.0f, 1.0f),   // input / ly
                   ffill(wsize, 0x102, -0.5f, 0.5f),      // weights / w
                   zeros(groups * kBpHid),                // partial sums
                   ffill(kBpHid + 1, 0x103, -0.2f, 0.2f), // delta
                   ffill(wsize, 0x104, -0.1f, 0.1f)};     // oldw
  bench.launches = {
      {"bpnn_layerforward", NDRange::grid2d(kBpBlock, kBpIn, kBpBlock, kBpBlock),
       {ArgSpec::buf(0), ArgSpec::buf(1), ArgSpec::buf(2),
        ArgSpec::i(static_cast<int32_t>(kBpHid))}},
      {"bpnn_adjust_weights", NDRange::grid2d(kBpBlock, kBpIn, kBpBlock, kBpBlock),
       {ArgSpec::buf(3), ArgSpec::buf(0), ArgSpec::buf(1), ArgSpec::buf(4),
        ArgSpec::i(static_cast<int32_t>(kBpHid))}},
  };
  bench.checked_buffers = {1, 2, 4};
  return bench;
}

Benchmark make_lud() {
  Benchmark bench;
  bench.origin = "Rodinia";
  bench.notes = "blocked LU decomposition: diagonal/perimeter/internal kernels, heavy __local use";
  const uint32_t n = 32, block = 8;
  const int32_t bi = static_cast<int32_t>(block);

  {
    // Diagonal block factorization: one work-group, in-place LU on a tile.
    KernelBuilder kb("lud_diagonal");
    Buf a = kb.buf_f32("a");
    Val size = kb.param_i32("size");
    Val offset = kb.param_i32("offset");
    Buf tile = kb.local_f32("tile", block * block);
    Val tx = kb.local_id(0), ty = kb.local_id(1);
    Val base = kb.let_("base", offset * size + offset);
    kb.store(tile, ty * bi + tx, kb.load(a, base + ty * size + tx));
    kb.barrier();
    kb.for_("k", Val(0), Val(bi - 1), [&](Val k) {
      kb.if_(ty > k && tx == k, [&] {
        kb.store(tile, ty * bi + tx, kb.load(tile, ty * bi + tx) / kb.load(tile, k * bi + k));
      });
      kb.barrier();
      kb.if_(ty > k && tx > k, [&] {
        kb.store(tile, ty * bi + tx,
                 kb.load(tile, ty * bi + tx) -
                     kb.load(tile, ty * bi + k) * kb.load(tile, k * bi + tx));
      });
      kb.barrier();
    });
    kb.store(a, base + ty * size + tx, kb.load(tile, ty * bi + tx));
    bench.module.kernels.push_back(kb.build());
  }
  {
    // Perimeter row blocks: B := L^-1 B for each block right of the diagonal.
    KernelBuilder kb("lud_perimeter_row");
    Buf a = kb.buf_f32("a");
    Val size = kb.param_i32("size");
    Val offset = kb.param_i32("offset");
    Buf diag = kb.local_f32("diag", block * block);
    Buf row_tile = kb.local_f32("row_tile", block * block);
    Val tx = kb.local_id(0), ty = kb.local_id(1), bx = kb.group_id(1);
    Val dbase = kb.let_("dbase", offset * size + offset);
    Val rbase = kb.let_("rbase", offset * size + offset + (bx + 1) * bi);
    kb.store(diag, ty * bi + tx, kb.load(a, dbase + ty * size + tx));
    kb.store(row_tile, ty * bi + tx, kb.load(a, rbase + ty * size + tx));
    kb.barrier();
    kb.for_("k", Val(0), Val(bi), [&](Val k) {
      kb.if_(ty > k, [&] {
        kb.store(row_tile, ty * bi + tx,
                 kb.load(row_tile, ty * bi + tx) -
                     kb.load(diag, ty * bi + k) * kb.load(row_tile, k * bi + tx));
      });
      kb.barrier();
    });
    kb.store(a, rbase + ty * size + tx, kb.load(row_tile, ty * bi + tx));
    bench.module.kernels.push_back(kb.build());
  }
  {
    // Perimeter column blocks: A := A U^-1 below the diagonal.
    KernelBuilder kb("lud_perimeter_col");
    Buf a = kb.buf_f32("a");
    Val size = kb.param_i32("size");
    Val offset = kb.param_i32("offset");
    Buf diag = kb.local_f32("diag", block * block);
    Buf col_tile = kb.local_f32("col_tile", block * block);
    Val tx = kb.local_id(0), ty = kb.local_id(1), by = kb.group_id(1);
    Val dbase = kb.let_("dbase", offset * size + offset);
    Val cbase = kb.let_("cbase", (offset + (by + 1) * bi) * size + offset);
    kb.store(diag, ty * bi + tx, kb.load(a, dbase + ty * size + tx));
    kb.store(col_tile, ty * bi + tx, kb.load(a, cbase + ty * size + tx));
    kb.barrier();
    kb.for_("k", Val(0), Val(bi), [&](Val k) {
      kb.if_(tx == k, [&] {
        kb.store(col_tile, ty * bi + tx,
                 kb.load(col_tile, ty * bi + tx) / kb.load(diag, k * bi + k));
      });
      kb.barrier();
      kb.if_(tx > k, [&] {
        kb.store(col_tile, ty * bi + tx,
                 kb.load(col_tile, ty * bi + tx) -
                     kb.load(col_tile, ty * bi + k) * kb.load(diag, k * bi + tx));
      });
      kb.barrier();
    });
    kb.store(a, cbase + ty * size + tx, kb.load(col_tile, ty * bi + tx));
    bench.module.kernels.push_back(kb.build());
  }
  {
    // Internal blocks: C -= L_col x U_row.
    KernelBuilder kb("lud_internal");
    Buf a = kb.buf_f32("a");
    Val size = kb.param_i32("size");
    Val offset = kb.param_i32("offset");
    Val nblocks = kb.param_i32("nblocks");  // remaining blocks per side
    Buf row_tile = kb.local_f32("row_tile", block * block);
    Buf col_tile = kb.local_f32("col_tile", block * block);
    Val tx = kb.local_id(0), ty = kb.local_id(1);
    Val g = kb.group_id(1);  // linearized (bx, by)
    Val bx = kb.let_("bx", g % nblocks);
    Val by = kb.let_("by", g / nblocks);
    Val rbase = kb.let_("rbase", offset * size + offset + (bx + 1) * bi);
    Val cbase = kb.let_("cbase", (offset + (by + 1) * bi) * size + offset);
    Val tbase = kb.let_("tbase", (offset + (by + 1) * bi) * size + offset + (bx + 1) * bi);
    kb.store(row_tile, ty * bi + tx, kb.load(a, rbase + ty * size + tx));
    kb.store(col_tile, ty * bi + tx, kb.load(a, cbase + ty * size + tx));
    kb.barrier();
    Val acc = kb.let_("acc", Val(0.0f));
    kb.for_("k", Val(0), Val(bi), [&](Val k) {
      kb.assign(acc, acc + kb.load(col_tile, ty * bi + k) * kb.load(row_tile, k * bi + tx));
    });
    kb.store(a, tbase + ty * size + tx, kb.load(a, tbase + ty * size + tx) - acc);
    bench.module.kernels.push_back(kb.build());
  }

  // Diagonally dominant input keeps the factorization stable.
  auto a = ffill(n * n, 0x111, -1.0f, 1.0f);
  for (uint32_t i = 0; i < n; ++i) a[i * n + i] = f2u(u2f(a[i * n + i]) + 16.0f);
  bench.buffers = {a};

  const uint32_t nblocks = n / block;
  for (uint32_t step = 0; step < nblocks; ++step) {
    const int32_t offset = static_cast<int32_t>(step * block);
    const uint32_t rest = nblocks - step - 1;
    bench.launches.push_back({"lud_diagonal", NDRange::grid2d(block, block, block, block),
                              {ArgSpec::buf(0), ArgSpec::i(static_cast<int32_t>(n)),
                               ArgSpec::i(offset)}});
    if (rest == 0) break;
    bench.launches.push_back(
        {"lud_perimeter_row", NDRange::grid2d(block, block * rest, block, block),
         {ArgSpec::buf(0), ArgSpec::i(static_cast<int32_t>(n)), ArgSpec::i(offset)}});
    bench.launches.push_back(
        {"lud_perimeter_col", NDRange::grid2d(block, block * rest, block, block),
         {ArgSpec::buf(0), ArgSpec::i(static_cast<int32_t>(n)), ArgSpec::i(offset)}});
    bench.launches.push_back(
        {"lud_internal", NDRange::grid2d(block, block * rest * rest, block, block),
         {ArgSpec::buf(0), ArgSpec::i(static_cast<int32_t>(n)), ArgSpec::i(offset),
          ArgSpec::i(static_cast<int32_t>(rest))}});
  }
  bench.checked_buffers = {0};
  return bench;
}

Benchmark make_btree() {
  Benchmark bench;
  bench.origin = "Rodinia";
  bench.notes = "B+tree findK and findRangeK: pointer-chasing gathers per query";
  // fanout^3 = 512 keys in 64 leaves of 8 keys each; two internal levels
  // (root + 8 nodes) sit above the leaves, so a descent dereferences
  // `levels` = 2 child pointers before scanning a leaf.
  const uint32_t fanout = 8, levels = 2;
  const uint32_t queries = 256;

  // Build a static B+tree over sorted keys. Internal nodes store separator
  // keys; leaves store (key, value) pairs. Node layout: node i has keys at
  // keys[i*fanout .. ] and children at children[i*fanout .. ].
  const uint32_t total_keys = fanout * fanout * fanout;  // 512 keys in leaves
  std::vector<uint32_t> keys_sorted(total_keys);
  for (uint32_t i = 0; i < total_keys; ++i) keys_sorted[i] = i * 3 + 1;  // strictly increasing

  const uint32_t n_internal = 1 + fanout;  // root + second level
  std::vector<uint32_t> node_keys(n_internal * fanout, 0xFFFFFFFFu);
  std::vector<uint32_t> node_children(n_internal * fanout, 0u);
  // Child c of a node at `level` covers fanout^(levels-level) keys.
  auto subtree_span = [&](uint32_t level) {
    uint32_t span = fanout;  // keys per leaf
    for (uint32_t l = level + 1; l < levels; ++l) span *= fanout;
    return span;
  };
  uint32_t next_node = 1;
  std::vector<std::pair<uint32_t, uint32_t>> frontier = {{0u, 0u}};  // (node, first key idx)
  for (uint32_t level = 0; level < levels; ++level) {
    std::vector<std::pair<uint32_t, uint32_t>> next_frontier;
    const uint32_t span = subtree_span(level);
    for (auto [node, first] : frontier) {
      for (uint32_t c = 0; c < fanout; ++c) {
        const uint32_t key_start = first + c * span;
        node_keys[node * fanout + c] = keys_sorted[key_start];  // smallest key in child
        if (level + 1 < levels) {
          node_children[node * fanout + c] = next_node;
          next_frontier.push_back({next_node, key_start});
          ++next_node;
        } else {
          node_children[node * fanout + c] = key_start;  // leaf: index into key array
        }
      }
    }
    frontier = std::move(next_frontier);
  }

  {
    KernelBuilder kb("findK");
    Buf nkeys = kb.buf_i32("node_keys"), nchildren = kb.buf_i32("node_children");
    Buf leaf_keys = kb.buf_i32("leaf_keys"), query = kb.buf_i32("query"),
        answer = kb.buf_i32("answer");
    Val nq = kb.param_i32("nq");
    Val gid = kb.global_id(0);
    kb.if_(gid < nq, [&] {
      Val q = kb.let_("q", kb.load(query, gid));
      Val node = kb.let_("node", Val(0));
      kb.for_("level", Val(0), Val(static_cast<int32_t>(levels)), [&](Val) {
        Val child = kb.let_("child", Val(0));
        kb.for_("i", Val(1), Val(static_cast<int32_t>(fanout)), [&](Val i) {
          kb.if_(kb.load(nkeys, node * static_cast<int32_t>(fanout) + i) <= q,
                 [&] { kb.assign(child, i); });
        });
        kb.assign(node, kb.load(nchildren, node * static_cast<int32_t>(fanout) + child));
      });
      // `node` is now a leaf key index; scan the leaf for an exact match.
      Val found = kb.let_("found", Val(-1));
      kb.for_("i", Val(0), Val(static_cast<int32_t>(fanout)), [&](Val i) {
        kb.if_(kb.load(leaf_keys, node + i) == q, [&] { kb.assign(found, node + i); });
      });
      kb.store(answer, gid, found);
    });
    bench.module.kernels.push_back(kb.build());
  }
  {
    // findRangeK: counts keys in [lo, lo+range) via two descents.
    KernelBuilder kb("findRangeK");
    Buf nkeys = kb.buf_i32("node_keys"), nchildren = kb.buf_i32("node_children");
    Buf leaf_keys = kb.buf_i32("leaf_keys"), query = kb.buf_i32("query"),
        count_out = kb.buf_i32("count_out");
    Val nq = kb.param_i32("nq");
    Val range = kb.param_i32("range");
    Val gid = kb.global_id(0);
    kb.if_(gid < nq, [&] {
      Val lo = kb.let_("lo", kb.load(query, gid));
      Val hi = kb.let_("hi", lo + range);
      // Rodinia's findRangeK descends the tree twice, once per endpoint.
      Val node_lo = kb.let_("node_lo", Val(0));
      Val node_hi = kb.let_("node_hi", Val(0));
      kb.for_("level", Val(0), Val(static_cast<int32_t>(levels)), [&](Val) {
        Val child_lo = kb.let_("child_lo", Val(0));
        Val child_hi = kb.let_("child_hi", Val(0));
        kb.for_("i", Val(1), Val(static_cast<int32_t>(fanout)), [&](Val i) {
          kb.if_(kb.load(nkeys, node_lo * static_cast<int32_t>(fanout) + i) <= lo,
                 [&] { kb.assign(child_lo, i); });
          kb.if_(kb.load(nkeys, node_hi * static_cast<int32_t>(fanout) + i) <= hi,
                 [&] { kb.assign(child_hi, i); });
        });
        kb.assign(node_lo, kb.load(nchildren, node_lo * static_cast<int32_t>(fanout) + child_lo));
        kb.assign(node_hi, kb.load(nchildren, node_hi * static_cast<int32_t>(fanout) + child_hi));
      });
      // Walk from the lo leaf to the hi leaf counting range members.
      Val count = kb.let_("count", Val(0));
      Val pos = kb.let_("pos", node_lo);
      Val limit = kb.let_("limit",
                          vmin(node_hi + static_cast<int32_t>(fanout), Val(static_cast<int32_t>(total_keys))));
      kb.while_(pos < limit && kb.load(leaf_keys, pos) < hi, [&] {
        kb.if_(kb.load(leaf_keys, pos) >= lo, [&] { kb.assign(count, count + 1); });
        kb.assign(pos, pos + 1);
      });
      kb.store(count_out, gid, count);
    });
    bench.module.kernels.push_back(kb.build());
  }

  bench.buffers = {node_keys, node_children, keys_sorted,
                   ifill(queries, 0x121, 0, static_cast<int32_t>(total_keys * 3)),
                   zeros(queries), zeros(queries)};
  bench.launches = {
      {"findK", NDRange::linear(queries, 64),
       {ArgSpec::buf(0), ArgSpec::buf(1), ArgSpec::buf(2), ArgSpec::buf(3), ArgSpec::buf(4),
        ArgSpec::i(static_cast<int32_t>(queries))}},
      {"findRangeK", NDRange::linear(queries, 64),
       {ArgSpec::buf(0), ArgSpec::buf(1), ArgSpec::buf(2), ArgSpec::buf(3), ArgSpec::buf(5),
        ArgSpec::i(static_cast<int32_t>(queries)), ArgSpec::i(24)}},
  };
  bench.checked_buffers = {4, 5};
  return bench;
}

Benchmark make_hybridsort() {
  Benchmark bench;
  bench.origin = "Rodinia";
  bench.notes = "bucket histogram (atomic_add, the paper's HLS-unsupported case) + scatter + per-bucket sort";
  const uint32_t n = 512, buckets = 16;

  {
    KernelBuilder kb("bucket_histogram");
    Buf data = kb.buf_i32("data"), hist = kb.buf_i32("hist");
    Val count = kb.param_i32("n");
    Val nbuckets = kb.param_i32("buckets");
    Val lo = kb.param_i32("lo"), width = kb.param_i32("width");
    Val gid = kb.global_id(0);
    kb.if_(gid < count, [&] {
      Val b = kb.let_("b", vmin((kb.load(data, gid) - lo) / width, nbuckets - 1));
      kb.atomic_add(hist, b, Val(1));
    });
    bench.module.kernels.push_back(kb.build());
  }
  {
    // Exclusive prefix over the histogram (single work item, like Rodinia's
    // CPU-side step folded onto the device).
    KernelBuilder kb("bucket_prefix");
    Buf hist = kb.buf_i32("hist"), offsets = kb.buf_i32("offsets");
    Val nbuckets = kb.param_i32("buckets");
    Val acc = kb.let_("acc", Val(0));
    kb.for_("i", Val(0), nbuckets, [&](Val i) {
      kb.store(offsets, i, acc);
      kb.assign(acc, acc + kb.load(hist, i));
    });
    bench.module.kernels.push_back(kb.build());
  }
  {
    KernelBuilder kb("bucket_scatter");
    Buf data = kb.buf_i32("data"), cursor = kb.buf_i32("cursor"), out = kb.buf_i32("out");
    Val count = kb.param_i32("n");
    Val nbuckets = kb.param_i32("buckets");
    Val lo = kb.param_i32("lo"), width = kb.param_i32("width");
    Val gid = kb.global_id(0);
    kb.if_(gid < count, [&] {
      Val v = kb.let_("v", kb.load(data, gid));
      Val b = kb.let_("b", vmin((v - lo) / width, nbuckets - 1));
      Val pos = kb.atomic_ret(kir::AtomicOp::kAdd, cursor, b, Val(1));
      kb.store(out, pos, v);
    });
    bench.module.kernels.push_back(kb.build());
  }
  {
    // Insertion sort within each bucket: one work item per bucket.
    KernelBuilder kb("bucket_sort");
    Buf out = kb.buf_i32("out"), offsets = kb.buf_i32("offsets"), hist = kb.buf_i32("hist");
    Val nbuckets = kb.param_i32("buckets");
    Val gid = kb.global_id(0);
    kb.if_(gid < nbuckets, [&] {
      Val begin = kb.let_("begin", kb.load(offsets, gid));
      Val end = kb.let_("end", begin + kb.load(hist, gid));
      kb.for_("i", begin + 1, end, [&](Val i) {
        Val key = kb.let_("key", kb.load(out, i));
        Val j = kb.let_("j", i - 1);
        kb.while_(j >= begin && kb.load(out, j) > key, [&] {
          kb.store(out, j + 1, kb.load(out, j));
          kb.assign(j, j - 1);
        });
        kb.store(out, j + 1, key);
      });
    });
    bench.module.kernels.push_back(kb.build());
  }

  auto input = ifill(n, 0x131, 0, 1023);
  bench.buffers = {input, zeros(buckets), zeros(buckets), zeros(buckets), zeros(n)};
  const int32_t width = 1024 / static_cast<int32_t>(buckets);
  bench.launches = {
      {"bucket_histogram", NDRange::linear(n, 64),
       {ArgSpec::buf(0), ArgSpec::buf(1), ArgSpec::i(static_cast<int32_t>(n)),
        ArgSpec::i(static_cast<int32_t>(buckets)), ArgSpec::i(0), ArgSpec::i(width)}},
      {"bucket_prefix", NDRange::linear(1, 1),
       {ArgSpec::buf(1), ArgSpec::buf(2), ArgSpec::i(static_cast<int32_t>(buckets))}},
      {"bucket_prefix", NDRange::linear(1, 1),
       {ArgSpec::buf(1), ArgSpec::buf(3), ArgSpec::i(static_cast<int32_t>(buckets))}},
      {"bucket_scatter", NDRange::linear(n, 64),
       {ArgSpec::buf(0), ArgSpec::buf(3), ArgSpec::buf(4), ArgSpec::i(static_cast<int32_t>(n)),
        ArgSpec::i(static_cast<int32_t>(buckets)), ArgSpec::i(0), ArgSpec::i(width)}},
      {"bucket_sort", NDRange::linear(buckets, 16),
       {ArgSpec::buf(4), ArgSpec::buf(2), ArgSpec::buf(1),
        ArgSpec::i(static_cast<int32_t>(buckets))}},
  };
  // Scatter order depends on atomic ordering; the fully sorted result does
  // not: compare against std::sort.
  std::vector<int32_t> expected(n);
  for (uint32_t i = 0; i < n; ++i) expected[i] = static_cast<int32_t>(input[i]);
  std::sort(expected.begin(), expected.end());
  bench.custom_verify = [expected](const std::vector<std::vector<uint32_t>>& buffers,
                                   const std::vector<std::string>&) -> Status {
    const auto& out = buffers[4];
    for (size_t i = 0; i < expected.size(); ++i) {
      if (static_cast<int32_t>(out[i]) != expected[i]) {
        return Status(ErrorKind::kRuntimeError,
                      "hybridsort: element " + std::to_string(i) + " = " +
                          std::to_string(static_cast<int32_t>(out[i])) + ", want " +
                          std::to_string(expected[i]));
      }
    }
    return Status::ok();
  };
  return bench;
}

Benchmark make_lbm() {
  Benchmark bench;
  bench.origin = "Rodinia / SPEC 470.lbm";
  bench.notes = "D3Q19 lattice-Boltzmann stream+collide; 19 distribution loads + 19 stores per cell";
  const uint32_t w = 16, h = 16, d = 4;
  const int32_t wi = static_cast<int32_t>(w), hi = static_cast<int32_t>(h),
                di = static_cast<int32_t>(d);

  // D3Q19 velocity set.
  const int ex[19] = {0, 1, -1, 0, 0, 0, 0, 1, -1, 1, -1, 1, -1, 1, -1, 0, 0, 0, 0};
  const int ey[19] = {0, 0, 0, 1, -1, 0, 0, 1, 1, -1, -1, 0, 0, 0, 0, 1, -1, 1, -1};
  const int ez[19] = {0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 1, 1, -1, -1, 1, 1, -1, -1};
  const int opposite[19] = {0, 2, 1, 4, 3, 6, 5, 10, 9, 8, 7, 14, 13, 12, 11, 18, 17, 16, 15};
  const float w0 = 1.0f / 3, w1 = 1.0f / 18, w2 = 1.0f / 36;
  const float wgt[19] = {w0, w1, w1, w1, w1, w1, w1, w2, w2, w2, w2,
                         w2, w2, w2, w2, w2, w2, w2, w2};

  KernelBuilder kb("lbm_step");
  Buf fin = kb.buf_f32("fin"), fout = kb.buf_f32("fout");
  Buf obstacle = kb.buf_i32("obstacle");
  Val x = kb.global_id(0), y = kb.global_id(1), z = kb.global_id(2);
  const int32_t cells_i = wi * hi * di;
  Val cell = kb.let_("cell", (z * hi + y) * wi + x);
  // Streaming pull with periodic wrap.
  std::vector<Val> f;
  for (int i = 0; i < 19; ++i) {
    // Names built from an lvalue suffix: "f" + std::to_string(i) trips a
    // GCC 12 -Wrestrict false positive once inlined.
    const std::string n = std::to_string(i);
    Val sx = kb.let_("sx" + n, (x - ex[i] + wi) % wi);
    Val sy = kb.let_("sy" + n, (y - ey[i] + hi) % hi);
    Val sz = kb.let_("sz" + n, (z - ez[i] + di) % di);
    f.push_back(kb.let_("f" + n,
                        kb.load(fin, i * cells_i + (sz * hi + sy) * wi + sx)));
  }
  Val rho = kb.let_("rho", [&] {
    Val sum = f[0];
    for (int i = 1; i < 19; ++i) sum = sum + f[static_cast<size_t>(i)];
    return sum;
  }());
  auto momentum = [&](const int* e, const char* tag) {
    Val sum = Val(0.0f);
    for (int i = 1; i < 19; ++i) {
      if (e[i] == 1) sum = sum + f[static_cast<size_t>(i)];
      if (e[i] == -1) sum = sum - f[static_cast<size_t>(i)];
    }
    return kb.let_(tag, sum / rho);
  };
  Val ux = momentum(ex, "ux");
  Val uy = momentum(ey, "uy");
  Val uz = momentum(ez, "uz");
  Val usqr = kb.let_("usqr", ux * ux + uy * uy + uz * uz);
  Val is_obstacle = kb.let_("is_obstacle", kb.load(obstacle, cell));
  const float omega = 1.2f;
  for (int i = 0; i < 19; ++i) {
    Val eu = kb.let_("eu" + std::to_string(i), to_f32(Val(ex[i])) * ux +
                                                   to_f32(Val(ey[i])) * uy +
                                                   to_f32(Val(ez[i])) * uz);
    Val feq = kb.let_("feq" + std::to_string(i),
                      rho * wgt[i] * (1.0f + 3.0f * eu + 4.5f * eu * eu - 1.5f * usqr));
    Val relaxed = kb.let_("relaxed" + std::to_string(i),
                          f[static_cast<size_t>(i)] +
                              omega * (feq - f[static_cast<size_t>(i)]));
    kb.store(fout, i * cells_i + cell,
             vselect(is_obstacle == 1, f[static_cast<size_t>(opposite[i])], relaxed));
  }
  bench.module.kernels.push_back(kb.build());

  const uint32_t cells = w * h * d;
  auto fin_data = ffill(19 * cells, 0x141, 0.05f, 0.15f);
  auto obstacle_data = zeros(cells);
  Rng rng(0x142);
  for (uint32_t i = 0; i < cells / 16; ++i) obstacle_data[rng.next_below(cells)] = 1;
  bench.buffers = {fin_data, zeros(19 * cells), obstacle_data};
  kir::NDRange ndr;
  ndr.dims = 3;
  ndr.global[0] = w;
  ndr.global[1] = h;
  ndr.global[2] = d;
  ndr.local[0] = 8;
  ndr.local[1] = 8;
  ndr.local[2] = 1;
  // Two timesteps, ping-ponging the distribution buffers.
  bench.launches = {
      {"lbm_step", ndr, {ArgSpec::buf(0), ArgSpec::buf(1), ArgSpec::buf(2)}},
      {"lbm_step", ndr, {ArgSpec::buf(1), ArgSpec::buf(0), ArgSpec::buf(2)}},
  };
  bench.checked_buffers = {0, 1};
  return bench;
}

Benchmark make_dwt2d() {
  Benchmark bench;
  bench.origin = "Rodinia";
  bench.notes = "CDF 5/3 lifting wavelet: row pass + column pass, multi-tap loads";
  const uint32_t n = 64;
  const int32_t ni = static_cast<int32_t>(n);

  auto build_pass = [&](const std::string& name, bool rows) {
    KernelBuilder kb(name);
    Buf in = kb.buf_f32("in"), out = kb.buf_f32("out");
    Val x = kb.global_id(0), y = kb.global_id(1);  // x: pair index, y: line
    const int32_t half = ni / 2;
    auto at = [&](Val line, Val pos) {
      return rows ? line * ni + pos : pos * ni + line;
    };
    auto clamp = [&](Val pos) { return vmin(vmax(pos, Val(0)), Val(ni - 1)); };
    // CDF 9/7-style double lifting: two predict + two update steps, each
    // output tap reading a neighborhood of samples (the multi-tap loads the
    // real dwt2d kernel performs).
    const float a1 = -1.586134342f, a2 = -0.05298011854f;
    const float a3 = 0.8829110762f, a4 = 0.4435068522f;
    Val p0 = kb.let_("p0", x * 2);
    Val s_m2 = kb.let_("s_m2", kb.load(in, at(y, clamp(p0 - 2))));
    Val s_m1 = kb.let_("s_m1", kb.load(in, at(y, clamp(p0 - 1))));
    Val s_0 = kb.let_("s_0", kb.load(in, at(y, p0)));
    Val s_1 = kb.let_("s_1", kb.load(in, at(y, p0 + 1)));
    Val s_2 = kb.let_("s_2", kb.load(in, at(y, clamp(p0 + 2))));
    Val s_3 = kb.let_("s_3", kb.load(in, at(y, clamp(p0 + 3))));
    Val s_m3 = kb.let_("s_m3", kb.load(in, at(y, clamp(p0 - 3))));
    Val s_m4 = kb.let_("s_m4", kb.load(in, at(y, clamp(p0 - 4))));
    Val s_4 = kb.let_("s_4", kb.load(in, at(y, clamp(p0 + 4))));
    // Predict 1 at this pair, left pair and right pair.
    Val d_0 = kb.let_("d_0", s_1 + a1 * (s_0 + s_2));
    Val d_m1 = kb.let_("d_m1", s_m1 + a1 * (s_m2 + s_0));
    Val d_1 = kb.let_("d_1", s_3 + a1 * (s_2 + s_4));
    Val d_m2 = kb.let_("d_m2", s_m3 + a1 * (s_m4 + s_m2));
    // Update 1.
    Val c_0 = kb.let_("c_0", s_0 + a2 * (d_m1 + d_0));
    Val c_1 = kb.let_("c_1", s_2 + a2 * (d_0 + d_1));
    Val c_m1 = kb.let_("c_m1", s_m2 + a2 * (d_m2 + d_m1));
    // Predict 2 + update 2.
    Val high = kb.let_("high", d_0 + a3 * (c_0 + c_1));
    Val prev_high = kb.let_("prev_high", d_m1 + a3 * (c_m1 + c_0));
    Val low = kb.let_("low", c_0 + a4 * (prev_high + high));
    kb.store(out, at(y, x), low);
    kb.store(out, at(y, x + half), high);
    return kb.build();
  };
  bench.module.kernels.push_back(build_pass("dwt_rows", true));
  bench.module.kernels.push_back(build_pass("dwt_cols", false));

  bench.buffers = {ffill(n * n, 0x151, 0.0f, 255.0f), zeros(n * n), zeros(n * n)};
  bench.launches = {
      {"dwt_rows", NDRange::grid2d(n / 2, n, 8, 8),
       {ArgSpec::buf(0), ArgSpec::buf(1)}},
      {"dwt_cols", NDRange::grid2d(n / 2, n, 8, 8),
       {ArgSpec::buf(1), ArgSpec::buf(2)}},
  };
  bench.checked_buffers = {1, 2};
  return bench;
}

Benchmark make_lavamd() {
  Benchmark bench;
  bench.origin = "Rodinia";
  bench.notes = "particle interactions across neighbor boxes with exp() potential";
  const uint32_t boxes_1d = 4, per_box = 16;
  const uint32_t boxes = boxes_1d * boxes_1d;
  const uint32_t particles = boxes * per_box;

  KernelBuilder kb("lavamd_force");
  Buf px = kb.buf_f32("px"), py = kb.buf_f32("py"), charge = kb.buf_f32("charge");
  Buf fx = kb.buf_f32("fx"), fy = kb.buf_f32("fy");
  Val nboxes_1d = kb.param_i32("boxes_1d");
  Val nper_box = kb.param_i32("per_box");
  Val alpha = kb.param_f32("alpha");
  Val gid = kb.global_id(0);
  Val box = kb.let_("box", gid / nper_box);
  Val bx = kb.let_("bx", box % nboxes_1d);
  Val by = kb.let_("by", box / nboxes_1d);
  Val xi = kb.let_("xi", kb.load(px, gid));
  Val yi = kb.let_("yi", kb.load(py, gid));
  Val accx = kb.let_("accx", Val(0.0f));
  Val accy = kb.let_("accy", Val(0.0f));
  kb.for_("noy", Val(-1), Val(2), [&](Val noy) {
    kb.for_("nox", Val(-1), Val(2), [&](Val nox) {
      Val nbx = kb.let_("nbx", (bx + nox + nboxes_1d) % nboxes_1d);
      Val nby = kb.let_("nby", (by + noy + nboxes_1d) % nboxes_1d);
      Val nbox = kb.let_("nbox", nby * nboxes_1d + nbx);
      kb.for_("j", nbox * nper_box, nbox * nper_box + nper_box, [&](Val j) {
        Val dx = kb.let_("dx", xi - kb.load(px, j));
        Val dy = kb.let_("dy", yi - kb.load(py, j));
        Val r2 = kb.let_("r2", dx * dx + dy * dy);
        Val u = kb.let_("u", vexp(-alpha * r2) * kb.load(charge, j));
        kb.assign(accx, accx + u * dx);
        kb.assign(accy, accy + u * dy);
      });
    });
  });
  kb.store(fx, gid, accx);
  kb.store(fy, gid, accy);
  bench.module.kernels.push_back(kb.build());

  bench.buffers = {ffill(particles, 0x161, 0.0f, 4.0f), ffill(particles, 0x162, 0.0f, 4.0f),
                   ffill(particles, 0x163, 0.5f, 1.5f), zeros(particles), zeros(particles)};
  bench.launches = {{"lavamd_force", NDRange::linear(particles, 64),
                     {ArgSpec::buf(0), ArgSpec::buf(1), ArgSpec::buf(2), ArgSpec::buf(3),
                      ArgSpec::buf(4), ArgSpec::i(static_cast<int32_t>(boxes_1d)),
                      ArgSpec::i(static_cast<int32_t>(per_box)), ArgSpec::f(0.5f)}}};
  bench.checked_buffers = {3, 4};
  return bench;
}

Benchmark make_cutcp() {
  Benchmark bench;
  bench.origin = "Parboil (paper's selection)";
  bench.notes = "cutoff Coulomb potential: lattice points accumulate nearby atom charges";
  const uint32_t grid = 32, atoms = 64;

  KernelBuilder kb("cutcp");
  Buf ax = kb.buf_f32("ax"), ay = kb.buf_f32("ay"), aq = kb.buf_f32("aq");
  Buf lattice = kb.buf_f32("lattice");
  Val natoms = kb.param_i32("natoms");
  Val gsize = kb.param_i32("gsize");
  Val cutoff2 = kb.param_f32("cutoff2");
  Val gx = kb.global_id(0), gy = kb.global_id(1);
  Val x = kb.let_("x", to_f32(gx) * 0.25f);
  Val y = kb.let_("y", to_f32(gy) * 0.25f);
  Val energy = kb.let_("energy", Val(0.0f));
  kb.for_("a", Val(0), natoms, [&](Val a) {
    Val dx = kb.let_("dx", x - kb.load(ax, a));
    Val dy = kb.let_("dy", y - kb.load(ay, a));
    Val r2 = kb.let_("r2", dx * dx + dy * dy);
    kb.if_(r2 < cutoff2, [&] {
      Val s = kb.let_("s", 1.0f - r2 / cutoff2);
      kb.assign(energy, energy + kb.load(aq, a) * s * s / vsqrt(r2 + 0.01f));
    });
  });
  kb.store(lattice, gy * gsize + gx, energy);
  bench.module.kernels.push_back(kb.build());

  bench.buffers = {ffill(atoms, 0x171, 0.0f, 8.0f), ffill(atoms, 0x172, 0.0f, 8.0f),
                   ffill(atoms, 0x173, -1.0f, 1.0f), zeros(grid * grid)};
  bench.launches = {{"cutcp", NDRange::grid2d(grid, grid, 8, 8),
                     {ArgSpec::buf(0), ArgSpec::buf(1), ArgSpec::buf(2), ArgSpec::buf(3),
                      ArgSpec::i(static_cast<int32_t>(atoms)),
                      ArgSpec::i(static_cast<int32_t>(grid)), ArgSpec::f(4.0f)}}};
  bench.checked_buffers = {3};
  return bench;
}

Benchmark make_spmv() {
  Benchmark bench;
  bench.origin = "Vortex tests / Parboil";
  bench.notes = "CSR sparse matrix-vector product: irregular x[] gathers";
  const uint32_t rows = 512, nnz_per_row = 4;

  KernelBuilder kb("spmv_csr");
  Buf row_ptr = kb.buf_i32("row_ptr"), cols = kb.buf_i32("cols"), vals = kb.buf_f32("vals");
  Buf x = kb.buf_f32("x"), y = kb.buf_f32("y");
  Val nrows = kb.param_i32("nrows");
  Val gid = kb.global_id(0);
  kb.if_(gid < nrows, [&] {
    Val acc = kb.let_("acc", Val(0.0f));
    kb.for_("k", kb.load(row_ptr, gid), kb.load(row_ptr, gid + 1), [&](Val k) {
      kb.assign(acc, acc + kb.load(vals, k) * kb.load(x, kb.load(cols, k)));
    });
    kb.store(y, gid, acc);
  });
  bench.module.kernels.push_back(kb.build());

  Rng rng(0x181);
  std::vector<uint32_t> row_ptr_data(rows + 1), cols_data(rows * nnz_per_row),
      vals_data(rows * nnz_per_row);
  for (uint32_t r = 0; r <= rows; ++r) row_ptr_data[r] = r * nnz_per_row;
  for (auto& c : cols_data) c = rng.next_below(rows);
  for (auto& v : vals_data) v = f2u(rng.next_float(-2.0f, 2.0f));
  bench.buffers = {row_ptr_data, cols_data, vals_data, ffill(rows, 0x182, -1.0f, 1.0f),
                   zeros(rows)};
  bench.launches = {{"spmv_csr", NDRange::linear(rows, 64),
                     {ArgSpec::buf(0), ArgSpec::buf(1), ArgSpec::buf(2), ArgSpec::buf(3),
                      ArgSpec::buf(4), ArgSpec::i(static_cast<int32_t>(rows))}}};
  bench.checked_buffers = {4};
  return bench;
}

Benchmark make_blackscholes() {
  Benchmark bench;
  bench.origin = "NVIDIA SDK";
  bench.notes = "European option pricing: exp/log/sqrt and the CND polynomial";
  const uint32_t options = 2048;

  KernelBuilder kb("blackscholes");
  Buf price = kb.buf_f32("price"), strike = kb.buf_f32("strike"), years = kb.buf_f32("years");
  Buf call = kb.buf_f32("call"), put = kb.buf_f32("put");
  Val count = kb.param_i32("n");
  Val riskfree = kb.param_f32("riskfree"), volatility = kb.param_f32("volatility");
  Val gid = kb.global_id(0);

  auto cnd = [&](const std::string& tag, Val d) {
    Val k = kb.let_(tag + "_k", 1.0f / (1.0f + 0.2316419f * vabs(d)));
    Val poly = kb.let_(
        tag + "_poly",
        k * (0.319381530f +
             k * (-0.356563782f + k * (1.781477937f + k * (-1.821255978f + k * 1.330274429f)))));
    Val w = kb.let_(tag + "_w", 1.0f - 0.39894228040f * vexp(-0.5f * d * d) * poly);
    return kb.let_(tag, vselect(d < 0.0f, 1.0f - w, w));
  };

  kb.if_(gid < count, [&] {
    Val s = kb.let_("s", kb.load(price, gid));
    Val x = kb.let_("x", kb.load(strike, gid));
    Val t = kb.let_("t", kb.load(years, gid));
    Val sqrt_t = kb.let_("sqrt_t", vsqrt(t));
    Val d1 = kb.let_("d1", (vlog(s / x) + (riskfree + 0.5f * volatility * volatility) * t) /
                               (volatility * sqrt_t));
    Val d2 = kb.let_("d2", d1 - volatility * sqrt_t);
    Val cnd1 = cnd("cnd1", d1);
    Val cnd2 = cnd("cnd2", d2);
    Val exp_rt = kb.let_("exp_rt", vexp(-riskfree * t));
    kb.store(call, gid, s * cnd1 - x * exp_rt * cnd2);
    kb.store(put, gid, x * exp_rt * (1.0f - cnd2) - s * (1.0f - cnd1));
  });
  bench.module.kernels.push_back(kb.build());

  bench.buffers = {ffill(options, 0x191, 5.0f, 30.0f), ffill(options, 0x192, 1.0f, 100.0f),
                   ffill(options, 0x193, 0.25f, 10.0f), zeros(options), zeros(options)};
  bench.launches = {{"blackscholes", NDRange::linear(options, 64),
                     {ArgSpec::buf(0), ArgSpec::buf(1), ArgSpec::buf(2), ArgSpec::buf(3),
                      ArgSpec::buf(4), ArgSpec::i(static_cast<int32_t>(options)),
                      ArgSpec::f(0.02f), ArgSpec::f(0.30f)}}};
  bench.checked_buffers = {3, 4};
  return bench;
}

}  // namespace fgpu::suite
