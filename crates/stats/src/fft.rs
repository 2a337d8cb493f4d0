//! Radix-2 FFTs, planned real-input transforms, and FFT-accelerated
//! convolution.
//!
//! The paper (Sec. 4.2, "Cost") uses FFTs to accelerate the convolutions that
//! build the target tail tables; this module provides that primitive without
//! any external dependency.
//!
//! Two tiers of API:
//!
//! * [`convolve`] / [`convolve_fft`] / [`convolve_direct`] — one-shot
//!   convolution of two real sequences, choosing the algorithm by size.
//! * [`FftPlan`] / [`Spectrum`] — the perf tier used by the table builder.
//!   A plan fixes the transform size once, precomputes twiddle factors and
//!   the bit-reversal permutation, and transforms *real* input at half-size
//!   cost (the classic even/odd complex packing). [`Spectrum`]s can be
//!   multiplied pointwise ([`Spectrum::mul_assign`]), so a convolution
//!   ladder `base, base⊛base, base^⊛3, …` costs one forward transform plus
//!   one O(n) pointwise product per rung — the structure
//!   `rubik-core::tables` exploits to rebuild all table rows from a single
//!   base transform. All plan entry points take caller-owned scratch/output
//!   buffers so a rebuild loop performs no steady-state allocation.
//!
//! A plan is an immutable, pure function of its size, so the process keeps
//! one per power-of-two size ([`FftPlan::shared`]), built on first use and
//! shared by every thread: the table builders and [`convolve_fft`] never
//! construct plans of their own.

use std::f64::consts::PI;
use std::sync::OnceLock;

/// A complex number represented as `(re, im)`.
///
/// A minimal internal representation; not exported as a general-purpose
/// complex type.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Creates a complex number.
    #[inline]
    pub fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    #[inline]
    fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    #[inline]
    fn scale(self, s: f64) -> Self {
        Self {
            re: self.re * s,
            im: self.im * s,
        }
    }

    #[inline]
    fn mul(self, other: Self) -> Self {
        Self {
            re: self.re * other.re - self.im * other.im,
            im: self.re * other.im + self.im * other.re,
        }
    }

    #[inline]
    fn add(self, other: Self) -> Self {
        Self {
            re: self.re + other.re,
            im: self.im + other.im,
        }
    }

    #[inline]
    fn sub(self, other: Self) -> Self {
        Self {
            re: self.re - other.re,
            im: self.im - other.im,
        }
    }
}

/// Computes the in-place radix-2 decimation-in-time FFT.
///
/// One-shot variant that derives twiddles on the fly; the table builder uses
/// [`FftPlan`] instead, which precomputes them.
///
/// # Panics
///
/// Panics if `data.len()` is not a power of two.
pub fn fft_in_place(data: &mut [Complex], inverse: bool) {
    let n = data.len();
    assert!(n.is_power_of_two(), "FFT length must be a power of two");
    if n <= 1 {
        return;
    }

    // Bit-reversal permutation.
    let mut j = 0usize;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            data.swap(i, j);
        }
    }

    // Iterative Cooley-Tukey butterflies.
    let sign = if inverse { 1.0 } else { -1.0 };
    let mut len = 2;
    while len <= n {
        let angle = sign * 2.0 * PI / len as f64;
        let wlen = Complex::new(angle.cos(), angle.sin());
        let mut i = 0;
        while i < n {
            let mut w = Complex::new(1.0, 0.0);
            for k in 0..len / 2 {
                let u = data[i + k];
                let v = data[i + k + len / 2].mul(w);
                data[i + k] = u.add(v);
                data[i + k + len / 2] = u.sub(v);
                w = w.mul(wlen);
            }
            i += len;
        }
        len <<= 1;
    }

    if inverse {
        let inv_n = 1.0 / n as f64;
        for x in data.iter_mut() {
            x.re *= inv_n;
            x.im *= inv_n;
        }
    }
}

/// A planned real-input FFT of a fixed power-of-two size.
///
/// The plan packs the real input into a complex sequence of half the length
/// and runs a half-size complex FFT with precomputed twiddle factors and
/// bit-reversal indices, then unpacks to the half-spectrum (bins `0..=n/2`;
/// the upper half is implied by Hermitian symmetry). Building a plan is
/// `O(n)`; each transform is `O(n log n)` with no allocation when the caller
/// reuses its scratch buffers.
///
/// Twiddles are stored **per butterfly stage, contiguously** (the stage for
/// block length `len` holds the `len/2` factors `exp(-2πik/len)`), and the
/// inverse direction keeps its own pre-conjugated copy. Conjugation is an
/// exact sign flip and the per-stage tables hold exactly the values the
/// strided lookups used to produce, so the butterfly arithmetic — and hence
/// every transform bit — is unchanged; the kernel just walks both tables
/// sequentially instead of gathering with a stride and branching on the
/// direction per butterfly.
#[derive(Debug, Clone)]
pub struct FftPlan {
    /// Real transform size (power of two, ≥ 2).
    n: usize,
    /// Half size: the complex FFT actually executed.
    half: usize,
    /// Forward twiddles, concatenated per stage (`half - 1` entries: one for
    /// the `len = 2` stage, two for `len = 4`, ..., `half/2` for the last).
    stage_twiddles: Vec<Complex>,
    /// The same tables conjugated, for the inverse direction.
    stage_twiddles_conj: Vec<Complex>,
    /// Unpack factors `exp(-2πik/n)` for `k <= half`.
    unpack: Vec<Complex>,
    /// Bit-reversal permutation for the half-size FFT.
    rev: Vec<u32>,
}

/// The half-spectrum of a real sequence under some [`FftPlan`]: bins
/// `0..=n/2` of the DFT (the rest follows from Hermitian symmetry).
///
/// Spectra from the same plan can be multiplied pointwise, which corresponds
/// to circular convolution of length `n` in the time domain — linear
/// convolution as long as the true support fits in `n`.
#[derive(Debug, Default, PartialEq)]
pub struct Spectrum {
    n: usize,
    bins: Vec<Complex>,
}

impl Clone for Spectrum {
    fn clone(&self) -> Self {
        Self {
            n: self.n,
            bins: self.bins.clone(),
        }
    }

    /// Reuses `self`'s bin storage, so cloning into a spectrum that already
    /// has capacity performs no allocation (the table-rebuild loop clones the
    /// base spectrum into a persistent running product every build).
    fn clone_from(&mut self, source: &Self) {
        self.n = source.n;
        self.bins.clone_from(&source.bins);
    }
}

impl Spectrum {
    /// The real transform size this spectrum belongs to.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the spectrum is empty (never true for plan-produced spectra).
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Pointwise (frequency-domain) multiplication: the spectrum of the
    /// convolution of the two underlying sequences.
    ///
    /// # Panics
    ///
    /// Panics if the spectra come from different-size plans.
    pub fn mul_assign(&mut self, other: &Spectrum) {
        assert_eq!(self.n, other.n, "spectra must share a plan size");
        for (a, b) in self.bins.iter_mut().zip(&other.bins) {
            *a = a.mul(*b);
        }
    }
}

impl FftPlan {
    /// Creates a plan for real transforms of size `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or is smaller than 2.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "FFT plan size must be a power of two >= 2"
        );
        let half = n / 2;
        let twiddles: Vec<Complex> = (0..half / 2)
            .map(|k| {
                let angle = -2.0 * PI * k as f64 / half as f64;
                Complex::new(angle.cos(), angle.sin())
            })
            .collect();
        // Re-lay the twiddles out per stage (the factors the strided lookup
        // `twiddles[k * stride]` used to gather), so the butterfly kernel
        // reads them sequentially. Values are copied, not recomputed.
        let mut stage_twiddles = Vec::with_capacity(half.saturating_sub(1));
        let mut len = 2;
        while len <= half {
            let stride = half / len;
            for k in 0..len / 2 {
                stage_twiddles.push(twiddles[k * stride]);
            }
            len <<= 1;
        }
        let stage_twiddles_conj = stage_twiddles.iter().map(|w| w.conj()).collect();
        let unpack = (0..=half)
            .map(|k| {
                let angle = -2.0 * PI * k as f64 / n as f64;
                Complex::new(angle.cos(), angle.sin())
            })
            .collect();
        let mut rev = vec![0u32; half];
        let mut j = 0usize;
        for i in 1..half {
            let mut bit = half >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            rev[i] = j as u32;
        }
        Self {
            n,
            half,
            stage_twiddles,
            stage_twiddles_conj,
            unpack,
            rev,
        }
    }

    /// The process-wide plan for real transforms of size `n`, built on the
    /// first call for that size and kept for the life of the process.
    ///
    /// A plan is a pure function of its size, so every caller of a size
    /// shares one immutable instance and transforms exactly as through
    /// [`FftPlan::new`]. A plan of size `n` holds about `26·n` bytes, and
    /// the sizes in use are a handful of small powers of two (up to 2048 for
    /// the paper's 8×16 tables of 128-bucket histograms), so the registry
    /// stays small.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two or is smaller than 2.
    pub fn shared(n: usize) -> &'static FftPlan {
        assert!(
            n.is_power_of_two() && n >= 2,
            "FFT plan size must be a power of two >= 2"
        );
        static PLANS: [OnceLock<FftPlan>; usize::BITS as usize] =
            [const { OnceLock::new() }; usize::BITS as usize];
        PLANS[n.trailing_zeros() as usize].get_or_init(|| FftPlan::new(n))
    }

    /// The real transform size.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the plan is empty (never; for API completeness).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Half-size complex FFT using the precomputed twiddles (decimation in
    /// time). `inverse` selects the pre-conjugated twiddle tables; scaling is
    /// the caller's job. The butterflies are identical to the classic strided
    /// formulation — the per-stage tables hold the same factor values — so
    /// the output is bit-for-bit unchanged; only the memory access pattern
    /// (sequential twiddle reads, branch-free inner loop) differs.
    fn half_fft(&self, data: &mut [Complex], inverse: bool) {
        let m = self.half;
        debug_assert_eq!(data.len(), m);
        for i in 1..m {
            let j = self.rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
        let twiddles = if inverse {
            &self.stage_twiddles_conj
        } else {
            &self.stage_twiddles
        };
        let mut len = 2;
        let mut offset = 0;
        while len <= m {
            let half_len = len / 2;
            let stage = &twiddles[offset..offset + half_len];
            for block in data.chunks_exact_mut(len) {
                let (lo, hi) = block.split_at_mut(half_len);
                for k in 0..half_len {
                    let u = lo[k];
                    let v = hi[k].mul(stage[k]);
                    lo[k] = u.add(v);
                    hi[k] = u.sub(v);
                }
            }
            offset += half_len;
            len <<= 1;
        }
    }

    /// Forward transform of a real sequence (zero-padded to the plan size)
    /// into `out`, using `scratch` for the packed half-size FFT. Both buffers
    /// are resized as needed and reused across calls without reallocating.
    ///
    /// # Panics
    ///
    /// Panics if `real.len() > self.len()`.
    pub fn forward_into(&self, real: &[f64], scratch: &mut Vec<Complex>, out: &mut Spectrum) {
        assert!(
            real.len() <= self.n,
            "input of length {} exceeds plan size {}",
            real.len(),
            self.n
        );
        let m = self.half;
        scratch.resize(m, Complex::default());
        // Pack x[2k] + i·x[2k+1].
        let mut pairs = real.chunks_exact(2);
        let mut k = 0;
        for pair in pairs.by_ref() {
            scratch[k] = Complex::new(pair[0], pair[1]);
            k += 1;
        }
        if let [tail] = pairs.remainder() {
            scratch[k] = Complex::new(*tail, 0.0);
            k += 1;
        }
        for slot in &mut scratch[k..] {
            *slot = Complex::default();
        }
        self.half_fft(scratch, false);

        out.n = self.n;
        out.bins.resize(m + 1, Complex::default());
        // Unpack: E[k] = (Z[k] + conj(Z[m-k]))/2, O[k] = -i(Z[k] - conj(Z[m-k]))/2,
        // X[k] = E[k] + e^{-2πik/n}·O[k]. Same arithmetic as the classic
        // indexed loop (`zk = Z[k % m]`, `zmk = conj(Z[(m-k) % m])`); the
        // wrap-around endpoints k = 0 and k = m are peeled so the interior
        // runs on zipped slices without bounds checks.
        let unpack_bin = |zk: Complex, zmk: Complex, w: Complex| {
            let e = zk.add(zmk).scale(0.5);
            let d = zk.sub(zmk).scale(0.5);
            let o = Complex::new(d.im, -d.re); // -i·d
            e.add(w.mul(o))
        };
        let z0 = scratch[0];
        out.bins[0] = unpack_bin(z0, z0.conj(), self.unpack[0]);
        let interior = out.bins[1..m]
            .iter_mut()
            .zip(&scratch[1..m])
            .zip(scratch[1..m].iter().rev())
            .zip(&self.unpack[1..m]);
        for (((bin, &zk), &zmk), &w) in interior {
            *bin = unpack_bin(zk, zmk.conj(), w);
        }
        out.bins[m] = unpack_bin(z0, z0.conj(), self.unpack[m]);
    }

    /// Convenience allocating forward transform.
    pub fn forward(&self, real: &[f64]) -> Spectrum {
        let mut scratch = Vec::new();
        let mut out = Spectrum {
            n: self.n,
            bins: Vec::new(),
        };
        self.forward_into(real, &mut scratch, &mut out);
        out
    }

    /// Inverse transform of a half-spectrum back to the `n` real samples,
    /// into `out` (resized to the plan size). `scratch` is reused across
    /// calls. Values are *not* clamped; convolving non-negative sequences can
    /// leave tiny negative round-off which callers clamp as appropriate.
    ///
    /// # Panics
    ///
    /// Panics if the spectrum belongs to a different plan size.
    pub fn inverse_into(&self, spec: &Spectrum, scratch: &mut Vec<Complex>, out: &mut Vec<f64>) {
        assert_eq!(spec.n, self.n, "spectrum plan size mismatch");
        let m = self.half;
        scratch.resize(m, Complex::default());
        // Re-pack: E[k] = (X[k] + conj(X[m-k]))/2,
        //          O[k] = conj(w_k)·(X[k] - conj(X[m-k]))/2,
        //          Z[k] = E[k] + i·O[k].
        // `X[m-k]` is the spectrum read back-to-front, so the whole pass is
        // zipped slices (no per-element index arithmetic); the operations
        // per element are unchanged.
        let repack = scratch
            .iter_mut()
            .zip(&spec.bins[..m])
            .zip(spec.bins[1..].iter().rev())
            .zip(&self.unpack[..m]);
        for (((slot, &xk), &xmk_raw), &w) in repack {
            let xmk = xmk_raw.conj();
            let e = xk.add(xmk).scale(0.5);
            let h = xk.sub(xmk).scale(0.5);
            let o = w.conj().mul(h);
            let io = Complex::new(-o.im, o.re); // i·o
            *slot = e.add(io);
        }
        self.half_fft(scratch, true);

        out.clear();
        out.reserve(self.n);
        let inv = 1.0 / m as f64;
        for z in scratch.iter() {
            out.push(z.re * inv);
            out.push(z.im * inv);
        }
    }

    /// Convenience allocating inverse transform.
    pub fn inverse(&self, spec: &Spectrum) -> Vec<f64> {
        let mut scratch = Vec::new();
        let mut out = Vec::new();
        self.inverse_into(spec, &mut scratch, &mut out);
        out
    }
}

/// Direct O(n·m) convolution; used for small inputs and as a test oracle.
pub fn convolve_direct(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        if x == 0.0 {
            continue;
        }
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

/// FFT-accelerated convolution of two real sequences, through the
/// process-wide plan of the transform size ([`FftPlan::shared`]).
pub fn convolve_fft(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let out_len = a.len() + b.len() - 1;
    let n = out_len.next_power_of_two().max(2);
    let plan = FftPlan::shared(n);
    let mut scratch = Vec::new();
    let mut fa = Spectrum {
        n,
        bins: Vec::new(),
    };
    let mut fb = Spectrum {
        n,
        bins: Vec::new(),
    };
    plan.forward_into(a, &mut scratch, &mut fa);
    plan.forward_into(b, &mut scratch, &mut fb);
    fa.mul_assign(&fb);
    let mut out = Vec::new();
    plan.inverse_into(&fa, &mut scratch, &mut out);
    out.truncate(out_len);
    // Clamp tiny negative values produced by floating-point error: the
    // convolution of non-negative PMFs must be non-negative.
    for v in &mut out {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    out
}

/// Threshold (product of lengths) above which the FFT path is faster than
/// the direct algorithm. Public so equivalence tests can probe both sides of
/// the crossover.
pub const FFT_CROSSOVER: usize = 64 * 64;

/// Convolves two real sequences, automatically choosing direct or FFT.
pub fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    if a.len().saturating_mul(b.len()) <= FFT_CROSSOVER {
        convolve_direct(a, b)
    } else {
        convolve_fft(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn fft_roundtrip_recovers_input() {
        let orig: Vec<Complex> = (0..16).map(|i| Complex::new(i as f64, 0.0)).collect();
        let mut data = orig.clone();
        fft_in_place(&mut data, false);
        fft_in_place(&mut data, true);
        for (a, b) in data.iter().zip(&orig) {
            assert!((a.re - b.re).abs() < 1e-9);
            assert!(a.im.abs() < 1e-9);
        }
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut data = vec![Complex::default(); 8];
        data[0] = Complex::new(1.0, 0.0);
        fft_in_place(&mut data, false);
        for c in &data {
            assert!((c.re - 1.0).abs() < 1e-12);
            assert!(c.im.abs() < 1e-12);
        }
    }

    #[test]
    fn plan_matches_one_shot_fft_spectrum() {
        for n in [2usize, 4, 8, 64, 256] {
            let x: Vec<f64> = (0..n).map(|i| ((i * 31 + 7) % 17) as f64 / 5.0).collect();
            let plan = FftPlan::new(n);
            let spec = plan.forward(&x);
            let mut full: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
            fft_in_place(&mut full, false);
            for k in 0..=n / 2 {
                assert!(
                    (spec.bins[k].re - full[k].re).abs() < 1e-9
                        && (spec.bins[k].im - full[k].im).abs() < 1e-9,
                    "n={n} bin {k}: {:?} vs {:?}",
                    spec.bins[k],
                    full[k]
                );
            }
        }
    }

    #[test]
    fn plan_roundtrip_recovers_real_input() {
        for n in [2usize, 8, 128, 1024] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let plan = FftPlan::new(n);
            let back = plan.inverse(&plan.forward(&x));
            assert_eq!(back.len(), n);
            assert_close(&back, &x, 1e-9);
        }
    }

    #[test]
    fn plan_roundtrip_pads_short_input_with_zeros() {
        let plan = FftPlan::new(16);
        let x = [0.25, 0.5, 0.25];
        let back = plan.inverse(&plan.forward(&x));
        assert_close(&back[..3], &x, 1e-12);
        for &v in &back[3..] {
            assert!(v.abs() < 1e-12);
        }
    }

    #[test]
    fn spectrum_product_is_convolution() {
        let a: Vec<f64> = (0..40).map(|i| ((i * 13) % 7) as f64 / 6.0).collect();
        let b: Vec<f64> = (0..25).map(|i| ((i * 5) % 11) as f64 / 10.0).collect();
        let n = (a.len() + b.len() - 1).next_power_of_two();
        let plan = FftPlan::new(n);
        let mut sa = plan.forward(&a);
        let sb = plan.forward(&b);
        sa.mul_assign(&sb);
        let conv = plan.inverse(&sa);
        let direct = convolve_direct(&a, &b);
        assert_close(&conv[..direct.len()], &direct, 1e-9);
    }

    #[test]
    fn spectrum_powers_build_a_convolution_ladder() {
        // The exact structure the table builder uses: pointwise powers of one
        // base spectrum must equal repeated time-domain self-convolution.
        let base = [0.2, 0.5, 0.2, 0.1];
        let rungs = 5;
        let n = ((base.len() - 1) * rungs + 1).next_power_of_two();
        let plan = FftPlan::new(n);
        let s_base = plan.forward(&base);
        let mut spec = s_base.clone();
        let mut direct = base.to_vec();
        for _ in 1..rungs {
            spec.mul_assign(&s_base);
            direct = convolve_direct(&direct, &base);
            let ladder = plan.inverse(&spec);
            assert_close(&ladder[..direct.len()], &direct, 1e-9);
        }
    }

    #[test]
    fn forward_into_reuses_buffers_without_reallocating() {
        let plan = FftPlan::new(256);
        let x: Vec<f64> = (0..200).map(|i| i as f64 / 200.0).collect();
        let mut scratch = Vec::new();
        let mut spec = Spectrum {
            n: 256,
            bins: Vec::new(),
        };
        plan.forward_into(&x, &mut scratch, &mut spec);
        let scratch_cap = scratch.capacity();
        let bins_cap = spec.bins.capacity();
        let scratch_ptr = scratch.as_ptr();
        let bins_ptr = spec.bins.as_ptr();
        for _ in 0..10 {
            plan.forward_into(&x, &mut scratch, &mut spec);
        }
        assert_eq!(scratch.capacity(), scratch_cap);
        assert_eq!(spec.bins.capacity(), bins_cap);
        assert_eq!(scratch.as_ptr(), scratch_ptr);
        assert_eq!(spec.bins.as_ptr(), bins_ptr);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn plan_rejects_non_power_of_two() {
        let _ = FftPlan::new(6);
    }

    #[test]
    fn shared_plans_are_one_instance_per_size_and_transform_like_fresh_ones() {
        for n in [2usize, 16, 256, 4096] {
            let shared = FftPlan::shared(n);
            assert!(std::ptr::eq(shared, FftPlan::shared(n)), "n={n}");
            assert_eq!(shared.len(), n);
            let x: Vec<f64> = (0..n).map(|i| ((i * 29 + 3) % 13) as f64 / 7.0).collect();
            let fresh = FftPlan::new(n);
            let spec = shared.forward(&x);
            assert_eq!(spec, fresh.forward(&x), "n={n}");
            let (back, fresh_back) = (shared.inverse(&spec), fresh.inverse(&spec));
            assert!(
                back.iter()
                    .zip(&fresh_back)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "n={n}"
            );
        }
        let from_threads: Vec<&FftPlan> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2).map(|_| s.spawn(|| FftPlan::shared(512))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(from_threads
            .iter()
            .all(|&p| std::ptr::eq(p, FftPlan::shared(512))));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn shared_plan_rejects_non_power_of_two() {
        let _ = FftPlan::shared(12);
    }

    #[test]
    #[should_panic(expected = "exceeds plan size")]
    fn plan_rejects_oversized_input() {
        let plan = FftPlan::new(8);
        let _ = plan.forward(&[0.0; 9]);
    }

    #[test]
    fn direct_convolution_known_answer() {
        let a = [1.0, 2.0, 3.0];
        let b = [0.0, 1.0, 0.5];
        let c = convolve_direct(&a, &b);
        assert_close(&c, &[0.0, 1.0, 2.5, 4.0, 1.5], 1e-12);
    }

    #[test]
    fn fft_matches_direct() {
        let a: Vec<f64> = (0..100).map(|i| ((i * 37) % 11) as f64 / 10.0).collect();
        let b: Vec<f64> = (0..73).map(|i| ((i * 13) % 7) as f64 / 6.0).collect();
        let d = convolve_direct(&a, &b);
        let f = convolve_fft(&a, &b);
        assert_close(&d, &f, 1e-8);
    }

    #[test]
    fn convolution_of_pmfs_sums_to_one() {
        let a = vec![0.25; 4];
        let b = vec![0.125; 8];
        let c = convolve(&a, &b);
        let total: f64 = c.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        assert!(convolve(&[], &[1.0]).is_empty());
        assert!(convolve(&[1.0], &[]).is_empty());
        assert!(convolve_fft(&[], &[]).is_empty());
    }

    #[test]
    fn single_element_convolution_works() {
        // out_len = 1 exercises the minimum plan size.
        let c = convolve_fft(&[2.0], &[3.0]);
        assert_eq!(c.len(), 1);
        assert!((c[0] - 6.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn fft_rejects_non_power_of_two() {
        let mut data = vec![Complex::default(); 6];
        fft_in_place(&mut data, false);
    }

    #[test]
    fn fft_output_is_nonnegative_for_pmfs() {
        // Even with floating point error, convolving PMFs must not produce
        // negative mass.
        let a = vec![1e-12; 200];
        let b = vec![1e-12; 200];
        for v in convolve_fft(&a, &b) {
            assert!(v >= 0.0);
        }
    }
}
