//! The compute kernel layer: packed, register-tiled gemm and fused
//! elementwise ops.
//!
//! Everything hot in the ADEC pipeline funnels through this module:
//! [`Matrix::matmul`]/[`Matrix::matmul_tn`]/[`Matrix::matmul_nt`] delegate
//! to [`matmul`]/[`matmul_at_b`]/[`matmul_a_bt`], and the `adec-nn` dense
//! layers run their affine-plus-activation step through [`add_bias_act`].
//!
//! ## Design invariants
//!
//! * **Ascending-`k` accumulation.** Every gemm variant accumulates each
//!   output element with a single `f32` accumulator walking the inner
//!   dimension in ascending order — the same chain of rounding steps as
//!   the pre-kernel-layer ikj loops. Faster layouts come from *packing*
//!   (copying operand panels into contiguous, microkernel-friendly
//!   buffers), never from reassociating the sum, so the packed kernels,
//!   the naive references below, and any thread count all produce
//!   bit-identical results and recorded training trajectories do not
//!   shift.
//! * **Deterministic threading.** Parallel regions split *output rows*
//!   across workers (see [`crate::pool`]); no cross-thread reduction
//!   exists anywhere in this module.
//! * **Checked at the door.** Every public kernel opens with a shape
//!   assert on operands that must agree and (in debug builds) a
//!   finiteness sweep over its inputs.
//!
//! ## Microkernel and loop order
//!
//! The gemm core is an `MR × NR` register tile updated over the full inner
//! dimension. `B` is packed into `k × NR` column panels and `A` into
//! `k × MR` row panels (transposed variants differ only in the pack
//! gather), so the microkernel's inner loop reads both operands
//! contiguously and auto-vectorizes. There are no explicit SIMD
//! intrinsics.
//!
//! The row driver blocks `A` in the GotoBLAS style. It packs up to `MC`
//! (64) rows of `A` into consecutive `MR`-row panels, then takes the `B`
//! panels one at a time and runs the microkernel against every `A` panel
//! of the block before moving on. A `B` panel (`k × NR`: 32 KB at
//! `k = 500`) is therefore streamed in once per block of `A` and stays
//! cache-hot while the block's tiles reuse it, and the packed block (at
//! most `MC × k` floats: 512 KB at `k = 2000`) stays in L2 across the
//! sweep. Walking the `A` tiles in the outer loop instead would stream the
//! whole of `B` once per `MR` rows: four times for a 16-row request
//! against a served network, sixteen times per 64 rows of a training
//! batch. The loop order decides which tile is computed when, never the
//! order in which a tile sums over `k`, so it changes no bits.
//!
//! [`matmul`] and its transposed variants pack `B` on every call. An
//! operand that stays fixed across calls — a served network's weights —
//! is packed once into a [`PackedB`] and multiplied with
//! [`matmul_packed`]; [`matmul`] is exactly `matmul_packed(a,
//! &PackedB::new(b))`. The panel layout does not depend on the
//! instruction-set level or the thread count, so one packed operand gives
//! the same bits everywhere.
//!
//! ## Instruction-set dispatch
//!
//! The row driver is compiled twice: once for the target's baseline
//! (SSE2 on x86-64) and, on `x86_64` only, once as an
//! `#[target_feature(enable = "avx2")]` clone of the same body. Each call
//! runs the clone of [`Isa::active`], which is [`Isa::detected`] unless a
//! test or benchmark pinned a level with [`set_isa_override`]. The clones
//! share the tile, the packing and the ascending-`k` single-accumulator
//! order, and Rust never contracts a multiply and an add into an FMA, so
//! every level produces the same bits. The call into the AVX2 clone is the
//! workspace's one `unsafe` block.

use crate::matrix::Matrix;
use crate::pool;
use std::sync::atomic::{AtomicU8, Ordering};

/// Microkernel tile height (output rows per register tile).
pub const MR: usize = 4;
/// Microkernel tile width (output columns per register tile).
pub const NR: usize = 16;
/// Rows of `A` packed as one block and swept by each `B` panel in turn, a
/// multiple of [`MR`]. At the paper tier's widest inner dimension
/// (`k = 2000`) a packed block is 512 KB, inside a 2 MB L2.
const MC: usize = 64;

// ----------------------------------------------------------------------
// Instruction-set levels
// ----------------------------------------------------------------------

/// An instruction-set level the packed gemm can run at. Every level
/// computes the same bits; they differ only in speed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    /// The target's baseline build (SSE2 on x86-64).
    Scalar,
    /// The AVX2 clone of the gemm row driver (x86-64 only).
    Avx2,
}

/// The level pinned by [`set_isa_override`]: 0 for none, 1 for `Scalar`,
/// 2 for `Avx2`.
static ISA_OVERRIDE: AtomicU8 = AtomicU8::new(0);

impl Isa {
    /// The highest level this CPU runs. The CPUID probe behind
    /// `is_x86_feature_detected!` runs once per process; later calls read
    /// its cache.
    pub fn detected() -> Isa {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return Isa::Avx2;
        }
        Isa::Scalar
    }

    /// Every level this CPU runs, in ascending order; `Scalar` is always
    /// first.
    pub fn available() -> &'static [Isa] {
        match Isa::detected() {
            Isa::Scalar => &[Isa::Scalar],
            Isa::Avx2 => &[Isa::Scalar, Isa::Avx2],
        }
    }

    /// The level the gemm kernels run at: the one pinned by
    /// [`set_isa_override`], else [`Isa::detected`].
    pub fn active() -> Isa {
        match ISA_OVERRIDE.load(Ordering::Relaxed) {
            1 => Isa::Scalar,
            2 => Isa::Avx2,
            _ => Isa::detected(),
        }
    }
}

impl std::fmt::Display for Isa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Isa::Scalar => "scalar",
            Isa::Avx2 => "avx2",
        })
    }
}

/// Pins the gemm level in-process. Intended for tests, the kernel bench
/// and the determinism auditor, which sweep levels; results are identical
/// at any level by construction. Pin [`Isa::detected`] to undo a pin.
///
/// # Panics
/// Panics if this CPU cannot run `isa`.
pub fn set_isa_override(isa: Isa) {
    assert!(
        Isa::available().contains(&isa),
        "set_isa_override: this CPU cannot run the {isa} level (detected: {})",
        Isa::detected()
    );
    let code = match isa {
        Isa::Scalar => 1,
        Isa::Avx2 => 2,
    };
    ISA_OVERRIDE.store(code, Ordering::Relaxed);
}

// ----------------------------------------------------------------------
// Packing
// ----------------------------------------------------------------------

/// A `k × n` gemm operand `B` packed into `⌈n/NR⌉` column panels of
/// layout `k × NR`, zero-padded on the right so the microkernel never
/// branches on the ragged final panel. Pack it once with [`PackedB::new`]
/// and multiply it any number of times with [`matmul_packed`].
#[derive(Debug, Clone)]
pub struct PackedB {
    k: usize,
    n: usize,
    panels: Vec<f32>,
}

impl PackedB {
    /// Packs `b` (`k × n`, row-major).
    pub fn new(b: &Matrix) -> PackedB {
        crate::debug_assert_finite!(b, "PackedB::new operand");
        let (k, n) = b.shape();
        let bs = b.as_slice();
        PackedB::gather(k, n, |panel, j0, w| {
            for kk in 0..k {
                panel[kk * NR..kk * NR + w].copy_from_slice(&bs[kk * n + j0..kk * n + j0 + w]);
            }
        })
    }

    /// Packs `B` given as its transpose `bt` (`n × k`, row-major): the
    /// gather walks rows of the stored matrix instead of columns.
    fn from_transpose(bt: &Matrix) -> PackedB {
        let (n, k) = bt.shape();
        let bts = bt.as_slice();
        PackedB::gather(k, n, |panel, j0, w| {
            for jj in 0..w {
                let row = &bts[(j0 + jj) * k..(j0 + jj) * k + k];
                for kk in 0..k {
                    panel[kk * NR + jj] = row[kk];
                }
            }
        })
    }

    /// Allocates the zeroed panels and fills each with `fill(panel, j0,
    /// w)`, which writes output columns `j0..j0 + w`; counts the values
    /// packed, padding included.
    fn gather(k: usize, n: usize, fill: impl Fn(&mut [f32], usize, usize)) -> PackedB {
        let np = n.div_ceil(NR);
        let mut panels = vec![0.0f32; np * k * NR];
        for jp in 0..np {
            let j0 = jp * NR;
            fill(&mut panels[jp * k * NR..(jp + 1) * k * NR], j0, NR.min(n - j0));
        }
        pool::pool_obs::packed_b_values().add(panels.len() as u64);
        PackedB { k, n, panels }
    }

    /// Rows of `B`: the inner dimension `k`.
    pub fn rows(&self) -> usize {
        self.k
    }

    /// Columns of `B`: the output width `n`.
    pub fn cols(&self) -> usize {
        self.n
    }
}

/// Packs `mr_eff ≤ MR` consecutive rows of `A` (`m × k`, row-major),
/// starting at row `i0`, into a `k × MR` panel. Lanes `mr_eff..MR` are
/// left untouched: the microkernel computes junk in those lanes and the
/// write-back discards it, so zeroing would be wasted work.
#[inline(always)]
fn pack_a_rows(a: &[f32], k: usize, i0: usize, mr_eff: usize, panel: &mut [f32]) {
    for ii in 0..mr_eff {
        let row = &a[(i0 + ii) * k..(i0 + ii) * k + k];
        for kk in 0..k {
            panel[kk * MR + ii] = row[kk];
        }
    }
}

/// Packs `mr_eff ≤ MR` consecutive *columns* of `A` (`k × m`, row-major),
/// starting at column `i0`, into a `k × MR` panel — the `Aᵀ·B` gather.
#[inline(always)]
fn pack_a_cols(a: &[f32], m: usize, k: usize, i0: usize, mr_eff: usize, panel: &mut [f32]) {
    for kk in 0..k {
        let row = &a[kk * m + i0..kk * m + i0 + mr_eff];
        for ii in 0..mr_eff {
            panel[kk * MR + ii] = row[ii];
        }
    }
}

// ----------------------------------------------------------------------
// Microkernel and row-block driver
// ----------------------------------------------------------------------

/// The register tile: `acc[ii][jj] += a_panel[kk][ii] * b_panel[kk][jj]`
/// over the full inner dimension, ascending `kk`. Each accumulator is a
/// single sequential f32 chain — the bit-identical-order invariant lives
/// here.
#[inline(always)]
fn microkernel(k: usize, a_panel: &[f32], b_panel: &[f32], acc: &mut [[f32; NR]; MR]) {
    for kk in 0..k {
        let a = &a_panel[kk * MR..kk * MR + MR];
        let b = &b_panel[kk * NR..kk * NR + NR];
        for ii in 0..MR {
            let av = a[ii];
            for jj in 0..NR {
                acc[ii][jj] += av * b[jj];
            }
        }
    }
}

/// Computes rows `r0..r0+nrows` of a `? × n` gemm into `chunk` from
/// pre-packed `B` panels, packing `A` on the fly via `pack_a` (which
/// receives the *global* start row of an `MR`-row panel). Runs the clone
/// of the [`Isa::active`] level; every clone gives the same bits.
fn gemm_rows<PA>(k: usize, n: usize, packed_b: &[f32], r0: usize, nrows: usize, chunk: &mut [f32], pack_a: PA)
where
    PA: Fn(usize, usize, &mut [f32]),
{
    #[cfg(target_arch = "x86_64")]
    if Isa::active() == Isa::Avx2 {
        #[allow(unsafe_code)]
        // SAFETY: `Isa::active()` is `Avx2` only when
        // `is_x86_feature_detected!("avx2")` held on this CPU: `Isa::detected()`
        // probes it, and `set_isa_override` refuses a level outside
        // `Isa::available()`, which is derived from `Isa::detected()`.
        unsafe {
            gemm_rows_avx2(k, n, packed_b, r0, nrows, chunk, pack_a);
        }
        return;
    }
    gemm_rows_body(k, n, packed_b, r0, nrows, chunk, pack_a);
}

/// The AVX2 clone of [`gemm_rows_body`]: the same source, with the packing
/// and the microkernel inlined and compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn gemm_rows_avx2<PA>(k: usize, n: usize, packed_b: &[f32], r0: usize, nrows: usize, chunk: &mut [f32], pack_a: PA)
where
    PA: Fn(usize, usize, &mut [f32]),
{
    gemm_rows_body(k, n, packed_b, r0, nrows, chunk, pack_a);
}

/// The row driver every [`Isa`] level compiles. It walks the rows in
/// blocks of up to [`MC`]: it packs a block's `A` rows into consecutive
/// `k × MR` panels, then, for each `B` panel in turn, runs the microkernel
/// against every `A` panel of the block and writes each tile back.
#[inline(always)]
fn gemm_rows_body<PA>(k: usize, n: usize, packed_b: &[f32], r0: usize, nrows: usize, chunk: &mut [f32], pack_a: PA)
where
    PA: Fn(usize, usize, &mut [f32]),
{
    let np = n.div_ceil(NR);
    let panel_len = k * MR;
    let mut a_block = vec![0.0f32; MC.min(nrows).div_ceil(MR) * panel_len];
    for ic in (0..nrows).step_by(MC) {
        let tiles = MC.min(nrows - ic).div_ceil(MR);
        for t in 0..tiles {
            let ib = ic + t * MR;
            let a_panel = &mut a_block[t * panel_len..(t + 1) * panel_len];
            pack_a(r0 + ib, MR.min(nrows - ib), a_panel);
        }
        for jp in 0..np {
            let b_panel = &packed_b[jp * k * NR..(jp + 1) * k * NR];
            let j0 = jp * NR;
            let w = NR.min(n - j0);
            for t in 0..tiles {
                let ib = ic + t * MR;
                let mut acc = [[0.0f32; NR]; MR];
                let a_panel = &a_block[t * panel_len..(t + 1) * panel_len];
                microkernel(k, a_panel, b_panel, &mut acc);
                for ii in 0..MR.min(nrows - ib) {
                    let row = (ib + ii) * n + j0;
                    chunk[row..row + w].copy_from_slice(&acc[ii][..w]);
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Public gemm kernels
// ----------------------------------------------------------------------

/// Runs the packed gemm of an `m`-row `A`, reached through its row-block
/// packer `pack_a`, against the panels of `b`.
fn gemm<PA>(m: usize, b: &PackedB, pack_a: PA) -> Matrix
where
    PA: Fn(usize, usize, &mut [f32]) + Sync,
{
    let (k, n) = (b.k, b.n);
    let mut out = Matrix::zeros(m, n);
    pool::parallel_rows(out.as_mut_slice(), m, n, m * n * k.max(1), |r0, nrows, chunk| {
        gemm_rows(k, n, &b.panels, r0, nrows, chunk, &pack_a);
    });
    out
}

/// Packed gemm `A · B` (`m × k` by `k × n`) against an operand packed
/// once ([`PackedB::new`]): the same bits as [`matmul`] on the unpacked
/// `B`, without its per-call pack.
///
/// # Panics
/// Panics if inner dimensions do not match.
pub fn matmul_packed(a: &Matrix, b: &PackedB) -> Matrix {
    assert_inner_dims(a, b.rows(), b.cols());
    crate::debug_assert_finite!(a, "kernels::matmul lhs");
    let (m, k) = a.shape();
    let ad = a.as_slice();
    gemm(m, b, |i0, mr_eff, panel| pack_a_rows(ad, k, i0, mr_eff, panel))
}

/// Packed gemm `A · B` (`m × k` by `k × n`), packing `B` for this call.
///
/// # Panics
/// Panics if inner dimensions do not match.
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_inner_dims(a, b.rows(), b.cols());
    matmul_packed(a, &PackedB::new(b))
}

/// Asserts that `A` (`m × k`) can multiply a `k × n` `B`.
fn assert_inner_dims(a: &Matrix, k: usize, n: usize) {
    let (m, cols) = a.shape();
    assert_eq!(cols, k, "matmul: inner dimension mismatch {m}x{cols} · {k}x{n}");
}

/// Packed gemm `Aᵀ · B` (`k × m` by `k × n`) without materializing the
/// transpose.
///
/// # Panics
/// Panics if the row counts (the shared inner dimension) do not match.
pub fn matmul_at_b(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "matmul_tn: row mismatch");
    crate::debug_assert_finite!(a, "kernels::matmul_at_b lhs");
    let (k, m) = a.shape();
    let ad = a.as_slice();
    gemm(m, &PackedB::new(b), |i0, mr_eff, panel| pack_a_cols(ad, m, k, i0, mr_eff, panel))
}

/// Packed gemm `A · Bᵀ` (`m × k` by `n × k`) without materializing the
/// transpose.
///
/// # Panics
/// Panics if the column counts (the shared inner dimension) do not match.
pub fn matmul_a_bt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_nt: column mismatch");
    crate::debug_assert_finite!(a, "kernels::matmul_a_bt lhs");
    crate::debug_assert_finite!(b, "kernels::matmul_a_bt rhs");
    let (m, k) = a.shape();
    let ad = a.as_slice();
    gemm(m, &PackedB::from_transpose(b), |i0, mr_eff, panel| pack_a_rows(ad, k, i0, mr_eff, panel))
}

// ----------------------------------------------------------------------
// Naive references
// ----------------------------------------------------------------------

/// Reference gemm `A · B`: textbook ijk triple loop, column-strided `B`
/// access. Retained as the equivalence-test and benchmark baseline.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "matmul: inner dimension mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    let (ad, bd) = (a.as_slice(), b.as_slice());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += ad[i * k + kk] * bd[kk * n + j];
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Reference `Aᵀ · B`: textbook triple loop over the stored layouts.
pub fn matmul_at_b_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "matmul_tn: row mismatch");
    let (k, m) = a.shape();
    let n = b.cols();
    let (ad, bd) = (a.as_slice(), b.as_slice());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += ad[kk * m + i] * bd[kk * n + j];
            }
            out.set(i, j, acc);
        }
    }
    out
}

/// Reference `A · Bᵀ`: textbook triple loop over the stored layouts.
pub fn matmul_a_bt_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "matmul_nt: column mismatch");
    let (m, k) = a.shape();
    let n = b.rows();
    let (ad, bd) = (a.as_slice(), b.as_slice());
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += ad[i * k + kk] * bd[j * k + kk];
            }
            out.set(i, j, acc);
        }
    }
    out
}

// ----------------------------------------------------------------------
// Fused elementwise kernels
// ----------------------------------------------------------------------

/// Numerically-stable logistic sigmoid, shared by the fused activation
/// path and the `adec-nn` tape so both compute the same bits.
#[inline]
pub fn stable_sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        1.0 / (1.0 + (-x).exp())
    } else {
        let e = x.exp();
        e / (1.0 + e)
    }
}

/// Activation fused into a kernel (applied in the same pass as the
/// preceding affine step). All variants expose their derivative as a
/// function of the *output*, which is what a tape backward has on hand.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedAct {
    /// Identity (linear layers).
    Identity,
    /// Rectified linear unit.
    Relu,
    /// Logistic sigmoid (numerically stable).
    Sigmoid,
    /// Hyperbolic tangent.
    Tanh,
}

impl FusedAct {
    /// Applies the activation to a pre-activation value.
    #[inline]
    pub fn eval(self, x: f32) -> f32 {
        match self {
            FusedAct::Identity => x,
            FusedAct::Relu => x.max(0.0),
            FusedAct::Sigmoid => stable_sigmoid(x),
            FusedAct::Tanh => x.tanh(),
        }
    }

    /// Audit annotation for the NaN-propagation lattice: whether the
    /// activation's output is bounded for every *finite* input (sigmoid
    /// lands in `(0,1)`, tanh in `(−1,1)`), so the op cannot manufacture a
    /// non-finite value from finite inputs. Identity and ReLU pass
    /// overflow-scale magnitudes through unchanged.
    #[inline]
    pub fn saturating(self) -> bool {
        matches!(self, FusedAct::Sigmoid | FusedAct::Tanh)
    }

    /// The derivative `act′(x)` expressed through the output `y = act(x)`:
    /// ReLU masks on `y > 0`, sigmoid is `y(1−y)`, tanh is `1−y²`.
    #[inline]
    pub fn grad_from_output(self, y: f32) -> f32 {
        match self {
            FusedAct::Identity => 1.0,
            FusedAct::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            FusedAct::Sigmoid => y * (1.0 - y),
            FusedAct::Tanh => 1.0 - y * y,
        }
    }

    /// Nominal FLOPs of one element of the fused `act(x + bias)`: the add,
    /// plus one for ReLU's max or eight for a transcendental (the profiler's
    /// cost model). The tape and the kernel bench both count with it.
    pub fn flops_per_element(self) -> u64 {
        match self {
            FusedAct::Identity => 1,
            FusedAct::Relu => 2,
            FusedAct::Sigmoid | FusedAct::Tanh => 9,
        }
    }
}

/// Fused `act(x + bias)` with `bias` broadcast over rows — one pass over
/// the batch instead of an add pass followed by an activation pass.
///
/// The activation is matched once per call: each arm hands the row loop a
/// closure over one constant variant, so the loop is compiled per
/// activation and the ReLU and identity loops vectorize.
///
/// # Panics
/// Panics if `bias.len() != x.cols()`.
pub fn add_bias_act(x: &Matrix, bias: &[f32], act: FusedAct) -> Matrix {
    assert_eq!(bias.len(), x.cols(), "add_bias_act: bias width mismatch");
    crate::debug_assert_finite!(x, "add_bias_act input");
    match act {
        FusedAct::Identity => add_bias_map(x, bias, |v| FusedAct::Identity.eval(v)),
        FusedAct::Relu => add_bias_map(x, bias, |v| FusedAct::Relu.eval(v)),
        FusedAct::Sigmoid => add_bias_map(x, bias, |v| FusedAct::Sigmoid.eval(v)),
        FusedAct::Tanh => add_bias_map(x, bias, |v| FusedAct::Tanh.eval(v)),
    }
}

/// `f(x + bias)` with `bias` broadcast over rows, split by rows across the
/// pool.
#[inline(always)]
fn add_bias_map(x: &Matrix, bias: &[f32], f: impl Fn(f32) -> f32 + Sync) -> Matrix {
    let (rows, cols) = x.shape();
    let mut out = Matrix::zeros(rows, cols);
    let xs = x.as_slice();
    pool::parallel_rows(out.as_mut_slice(), rows, cols, rows * cols, |r0, nrows, chunk| {
        for r in 0..nrows {
            let xrow = &xs[(r0 + r) * cols..(r0 + r + 1) * cols];
            let orow = &mut chunk[r * cols..(r + 1) * cols];
            for ((o, &v), &bv) in orow.iter_mut().zip(xrow).zip(bias) {
                *o = f(v + bv);
            }
        }
    });
    out
}

/// Backward of [`add_bias_act`]: given upstream gradient `g` and the
/// fused output `y`, returns `(dx, dbias)` where
/// `dx = g ⊙ act′(y)` and `dbias` is the column sum of `dx` — the same
/// arithmetic as the unfused activation-then-bias backward chain.
///
/// One serial pass computes both, matching the activation once per call
/// as [`add_bias_act`] does; `dbias` adds the rows of `dx` in ascending
/// order from zero, as [`Matrix::col_sums`] does.
///
/// # Panics
/// Panics on `g`/`y` shape mismatch.
pub fn add_bias_act_backward(g: &Matrix, y: &Matrix, act: FusedAct) -> (Matrix, Vec<f32>) {
    assert_eq!(g.shape(), y.shape(), "add_bias_act_backward: shape mismatch");
    crate::debug_assert_finite!(g, "add_bias_act_backward upstream");
    match act {
        FusedAct::Identity => bias_act_grads(g, y, |v| FusedAct::Identity.grad_from_output(v)),
        FusedAct::Relu => bias_act_grads(g, y, |v| FusedAct::Relu.grad_from_output(v)),
        FusedAct::Sigmoid => bias_act_grads(g, y, |v| FusedAct::Sigmoid.grad_from_output(v)),
        FusedAct::Tanh => bias_act_grads(g, y, |v| FusedAct::Tanh.grad_from_output(v)),
    }
}

/// `dx = g ⊙ grad(y)` and the column sums of `dx`, in one pass over the
/// rows.
#[inline(always)]
fn bias_act_grads(g: &Matrix, y: &Matrix, grad: impl Fn(f32) -> f32) -> (Matrix, Vec<f32>) {
    let (rows, cols) = g.shape();
    let mut dx = Matrix::zeros(rows, cols);
    let mut dbias = vec![0.0f32; cols];
    for r in 0..rows {
        let (grow, yrow) = (g.row(r), y.row(r));
        for (((d, s), &gv), &yv) in dx.row_mut(r).iter_mut().zip(&mut dbias).zip(grow).zip(yrow) {
            *d = gv * grad(yv);
            *s += *d;
        }
    }
    (dx, dbias)
}

/// In-place fused `y += alpha · x` over raw slices.
///
/// # Panics
/// Panics on length mismatch.
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x.iter()) {
        *yi += alpha * xi;
    }
}

/// Row-wise softmax with its stabilization terms, computed in one pass
/// per row: `m = max(row)`, `denom = Σ exp(v−m)`, `p = exp(v−m−ln denom)`
/// — the exact operation order of the tape's softmax cross-entropy, so
/// the fused and unfused paths agree bit-for-bit.
pub struct RowSoftmax {
    /// Row-stochastic probabilities, same shape as the input.
    pub probs: Matrix,
    /// Per-row maximum (the stabilization shift).
    pub row_max: Vec<f32>,
    /// Per-row `ln Σ exp(v − max)`; `ln p = v − row_max − log_denom`.
    pub log_denom: Vec<f32>,
}

/// Computes [`RowSoftmax`] for every row of `x`.
///
/// # Panics
/// Panics if `x` has zero columns (softmax of an empty row is undefined).
pub fn softmax_rows_detailed(x: &Matrix) -> RowSoftmax {
    assert!(x.cols() > 0, "softmax_rows: zero-width rows");
    crate::debug_assert_finite!(x, "softmax_rows input");
    let (n, k) = x.shape();
    let mut probs = Matrix::zeros(n, k);
    let mut row_max = Vec::with_capacity(n);
    let mut log_denom = Vec::with_capacity(n);
    for i in 0..n {
        let row = x.row(i);
        let m = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for &v in row {
            denom += (v - m).exp();
        }
        let ld = denom.ln();
        let orow = probs.row_mut(i);
        for (o, &v) in orow.iter_mut().zip(row.iter()) {
            *o = (v - m - ld).exp();
        }
        row_max.push(m);
        log_denom.push(ld);
    }
    RowSoftmax {
        probs,
        row_max,
        log_denom,
    }
}

/// Row-wise softmax probabilities (stabilized).
pub fn softmax_rows(x: &Matrix) -> Matrix {
    assert!(x.cols() > 0, "softmax_rows: zero-width rows");
    softmax_rows_detailed(x).probs
}

/// Fused per-row linear interpolation `out[i] = t[i]·a[i] + (1−t[i])·b[i]`
/// — ACAI's latent mixing in one pass instead of two row-scales and an
/// add.
///
/// # Panics
/// Panics on shape mismatch or if `t.len() != a.rows()`.
pub fn row_lerp(a: &Matrix, b: &Matrix, t: &[f32]) -> Matrix {
    assert_eq!(a.shape(), b.shape(), "row_lerp: shape mismatch");
    assert_eq!(t.len(), a.rows(), "row_lerp: weight length mismatch");
    crate::debug_assert_finite!(a, "row_lerp lhs");
    crate::debug_assert_finite!(b, "row_lerp rhs");
    let (rows, cols) = a.shape();
    let mut out = Matrix::zeros(rows, cols);
    let (ad, bd) = (a.as_slice(), b.as_slice());
    pool::parallel_rows(out.as_mut_slice(), rows, cols, rows * cols, |r0, nrows, chunk| {
        for r in 0..nrows {
            let w = t[r0 + r];
            let arow = &ad[(r0 + r) * cols..(r0 + r + 1) * cols];
            let brow = &bd[(r0 + r) * cols..(r0 + r + 1) * cols];
            let orow = &mut chunk[r * cols..(r + 1) * cols];
            for ((o, &av), &bv) in orow.iter_mut().zip(arow.iter()).zip(brow.iter()) {
                *o = w * av + (1.0 - w) * bv;
            }
        }
    });
    out
}

// ----------------------------------------------------------------------
// Buffer health scan
// ----------------------------------------------------------------------

/// Summary of one [`finite_scan`] pass over a buffer: non-finite value
/// counts broken out by kind, plus the largest finite magnitude — enough
/// for a training guard to distinguish "NaN poisoning" from "exploding
/// but still finite" without a second pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FiniteScan {
    /// Number of NaN entries.
    pub nan: usize,
    /// Number of `+∞` entries.
    pub pos_inf: usize,
    /// Number of `-∞` entries.
    pub neg_inf: usize,
    /// Largest `|x|` over the finite entries (0 if none are finite).
    pub max_abs: f32,
}

impl FiniteScan {
    /// True when every scanned entry was finite.
    pub fn is_clean(&self) -> bool {
        self.nan == 0 && self.pos_inf == 0 && self.neg_inf == 0
    }
}

/// Single-pass health scan: counts NaN/±∞ entries and tracks the largest
/// finite magnitude. Unlike [`Matrix::all_finite`] this does not stop at
/// the first bad value, so callers can report *what kind* of corruption
/// occurred and how large the healthy entries had grown.
///
/// # Panics
/// Panics on an empty buffer (a scan of nothing is a caller bug).
pub fn finite_scan(xs: &[f32]) -> FiniteScan {
    assert!(!xs.is_empty(), "finite_scan: empty buffer");
    let mut scan = FiniteScan {
        nan: 0,
        pos_inf: 0,
        neg_inf: 0,
        max_abs: 0.0,
    };
    for &x in xs {
        if x.is_finite() {
            scan.max_abs = scan.max_abs.max(x.abs());
        } else if x.is_nan() {
            scan.nan += 1;
        } else if x > 0.0 {
            scan.pos_inf += 1;
        } else {
            scan.neg_inf += 1;
        }
    }
    scan
}

#[cfg(test)]
// Test code: exact float comparisons and unwraps are the assertions
// themselves here.
#[allow(clippy::float_cmp, clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::rng::SeedRng;

    #[test]
    fn packed_matmul_known_result() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        assert_eq!(matmul(&a, &b).as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn packed_matches_naive_bitwise_on_random() {
        let mut rng = SeedRng::new(11);
        for &(m, k, n) in &[
            (1usize, 7usize, 5usize),
            (5, 1, 9),
            (17, 33, 19),
            (64, 64, 64),
            (MC + 1, 9, 17),
        ] {
            let a = Matrix::randn(m, k, 0.0, 1.0, &mut rng);
            let b = Matrix::randn(k, n, 0.0, 1.0, &mut rng);
            assert_eq!(matmul(&a, &b), matmul_naive(&a, &b), "{m}x{k}x{n}");
            let packed = PackedB::new(&b);
            assert_eq!((packed.rows(), packed.cols()), (k, n));
            for _ in 0..2 {
                assert_eq!(matmul_packed(&a, &packed), matmul_naive(&a, &b), "packed {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn transposed_variants_match_explicit_transpose() {
        let mut rng = SeedRng::new(12);
        let a = Matrix::randn(9, 5, 0.0, 1.0, &mut rng);
        let b = Matrix::randn(9, 7, 0.0, 1.0, &mut rng);
        let tn = matmul_at_b(&a, &b);
        assert!(tn.sub(&a.transpose().matmul(&b)).max_abs() < 1e-5);
        assert_eq!(tn, matmul_at_b_naive(&a, &b));

        let c = Matrix::randn(6, 8, 0.0, 1.0, &mut rng);
        let d = Matrix::randn(4, 8, 0.0, 1.0, &mut rng);
        let nt = matmul_a_bt(&c, &d);
        assert!(nt.sub(&c.matmul(&d.transpose())).max_abs() < 1e-5);
        assert_eq!(nt, matmul_a_bt_naive(&c, &d));
    }

    #[test]
    fn degenerate_shapes() {
        let a = Matrix::zeros(0, 3);
        let b = Matrix::zeros(3, 4);
        assert_eq!(matmul(&a, &b).shape(), (0, 4));
        let c = Matrix::zeros(2, 0);
        let d = Matrix::zeros(0, 5);
        let out = matmul(&c, &d);
        assert_eq!(out.shape(), (2, 5));
        assert_eq!(out.sum(), 0.0);
    }

    const ACTS: [FusedAct; 4] = [
        FusedAct::Identity,
        FusedAct::Relu,
        FusedAct::Sigmoid,
        FusedAct::Tanh,
    ];

    /// Bit patterns, so that a NaN compares equal to the same NaN.
    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|v| v.to_bits()).collect()
    }

    /// Overwrites every `step`-th value of `m`, from `first`, with `values`
    /// in turn.
    fn plant(m: &mut Matrix, first: usize, step: usize, values: &[f32]) {
        let planted = m.as_mut_slice().iter_mut().skip(first).step_by(step);
        for (v, &s) in planted.zip(values) {
            *v = s;
        }
    }

    #[test]
    fn add_bias_act_matches_unfused() {
        // Debug builds refuse a non-finite `x`, so the NaN and the
        // infinities enter through the bias.
        let mut rng = SeedRng::new(13);
        for &(rows, cols) in &[(5usize, 6usize), (1, 9), (9, 1)] {
            let mut x = Matrix::randn(rows, cols, 0.0, 2.0, &mut rng);
            plant(&mut x, 0, 2, &[0.0, -0.0, f32::MAX, -f32::MAX]);
            let specials = [0.0, -0.0, f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
            for special in std::iter::once(None).chain(specials.map(Some)) {
                let mut bias: Vec<f32> = (0..cols).map(|i| i as f32 * 0.3 - 1.0).collect();
                if let Some(s) = special {
                    bias[0] = s;
                }
                for act in ACTS {
                    let fused = add_bias_act(&x, &bias, act);
                    let mut unfused = x.add_row_broadcast(&bias);
                    unfused.map_inplace(|v| act.eval(v));
                    assert_eq!(
                        bits(fused.as_slice()),
                        bits(unfused.as_slice()),
                        "{act:?} {rows}x{cols} bias[0] {special:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn add_bias_act_backward_matches_unfused() {
        // Debug builds refuse a non-finite `g`; `y` carries the NaN and
        // the infinities.
        let mut rng = SeedRng::new(15);
        let specials = [
            0.0,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MAX,
            -f32::MAX,
        ];
        for cols in [1usize, 15, 17, 144] {
            for rows in [1usize, 16] {
                let mut g = Matrix::randn(rows, cols, 0.0, 1.0, &mut rng);
                let mut y = Matrix::randn(rows, cols, 0.0, 1.0, &mut rng);
                plant(&mut g, 0, 3, &[0.0, -0.0, f32::MAX, -f32::MAX]);
                plant(&mut y, 1, 2, &specials);
                for act in ACTS {
                    let (dx, dbias) = add_bias_act_backward(&g, &y, act);
                    let want = g.zip_with(&y, |gi, yi| gi * act.grad_from_output(yi));
                    let shape = format!("{act:?} {rows}x{cols}");
                    assert_eq!(bits(dx.as_slice()), bits(want.as_slice()), "dx {shape}");
                    assert_eq!(bits(&dbias), bits(&want.col_sums()), "dbias {shape}");
                }
            }
        }
    }

    #[test]
    fn grad_from_output_matches_finite_difference() {
        for act in ACTS {
            for &x in &[-1.7f32, -0.3, 0.4, 2.1] {
                let eps = 1e-3;
                let numeric = (act.eval(x + eps) - act.eval(x - eps)) / (2.0 * eps);
                let analytic = act.grad_from_output(act.eval(x));
                assert!(
                    (numeric - analytic).abs() < 1e-2,
                    "{act:?} at {x}: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    fn softmax_rows_are_stochastic_and_stable() {
        let x = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 1000.0, 1000.0, 1000.0]);
        let sm = softmax_rows_detailed(&x);
        for i in 0..2 {
            let s: f32 = sm.probs.row(i).iter().sum();
            assert!((s - 1.0).abs() < 1e-5, "row {i} sums to {s}");
        }
        assert!(sm.probs.all_finite());
        assert_eq!(sm.row_max, vec![3.0, 1000.0]);
        // Uniform row → each prob 1/3, log_denom = ln 3.
        assert!((sm.probs.get(1, 0) - 1.0 / 3.0).abs() < 1e-6);
        assert!((sm.log_denom[1] - 3.0f32.ln()).abs() < 1e-6);
    }

    #[test]
    fn row_lerp_endpoints_and_midpoint() {
        let a = Matrix::full(3, 2, 2.0);
        let b = Matrix::full(3, 2, -2.0);
        let out = row_lerp(&a, &b, &[1.0, 0.0, 0.5]);
        assert_eq!(out.row(0), &[2.0, 2.0]);
        assert_eq!(out.row(1), &[-2.0, -2.0]);
        assert_eq!(out.row(2), &[0.0, 0.0]);
    }

    #[test]
    fn axpy_slices() {
        let x = [1.0f32, 2.0, 3.0];
        let mut y = [1.0f32, 1.0, 1.0];
        axpy(0.5, &x, &mut y);
        assert_eq!(y, [1.5, 2.0, 2.5]);
    }

    #[test]
    fn threaded_gemm_is_bit_identical() {
        // 133 rows: two `MC` blocks plus a ragged tile when serial; chunks
        // starting off the `MR` and `MC` boundaries at 2, 3 and 4 threads.
        let mut rng = SeedRng::new(14);
        let a = Matrix::randn(2 * MC + 5, 29, 0.0, 1.0, &mut rng);
        let b = Matrix::randn(29, 23, 0.0, 1.0, &mut rng);
        crate::pool::set_thread_override(1);
        let serial = matmul(&a, &b);
        assert_eq!(serial, matmul_naive(&a, &b));
        for threads in [2usize, 3, 4] {
            crate::pool::set_thread_override(threads);
            assert_eq!(matmul(&a, &b), serial, "threads={threads}");
        }
        crate::pool::set_thread_override(0);
    }

    #[test]
    fn isa_levels_are_ordered_and_pinnable() {
        let available = Isa::available();
        assert_eq!(available.first(), Some(&Isa::Scalar));
        assert_eq!(available.last(), Some(&Isa::detected()));
        for &isa in available {
            set_isa_override(isa);
            assert_eq!(Isa::active(), isa);
        }
        set_isa_override(Isa::detected());
        assert_eq!(Isa::active(), Isa::detected());
        if !available.contains(&Isa::Avx2) {
            // The hook refuses a level this CPU cannot run.
            assert!(std::panic::catch_unwind(|| set_isa_override(Isa::Avx2)).is_err());
        }
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_shape_panic() {
        let _ = matmul(&Matrix::zeros(2, 3), &Matrix::zeros(2, 3));
    }

    #[test]
    fn finite_scan_counts_each_kind() {
        let xs = [
            1.0f32,
            f32::NAN,
            -3.5,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            2.0,
        ];
        let scan = finite_scan(&xs);
        assert_eq!(scan.nan, 2);
        assert_eq!(scan.pos_inf, 1);
        assert_eq!(scan.neg_inf, 1);
        assert_eq!(scan.max_abs, 3.5);
        assert!(!scan.is_clean());
    }

    #[test]
    fn finite_scan_clean_buffer() {
        let scan = finite_scan(&[0.25f32, -7.0, 1e-20]);
        assert!(scan.is_clean());
        assert_eq!(scan.max_abs, 7.0);
    }

    #[test]
    #[should_panic(expected = "empty buffer")]
    fn finite_scan_empty_panics() {
        let _ = finite_scan(&[]);
    }
}
