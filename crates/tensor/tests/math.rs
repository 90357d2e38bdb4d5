//! Exactness of `anole_tensor::math`: the scalar ports against bits recorded
//! from glibc 2.36, and the slice kernels against the scalar ports.
//!
//! The tier-1 tests here do not call the host's libm, so they hold on any
//! host: the ports are pinned by glibc's bits on a table of inputs and by a
//! hash of its outputs on a million more. The two `#[ignore]`d tests sweep
//! all 2³² inputs, comparing the kernels with the ports and the ports with
//! `f32::tanh`, `f32::exp` and `f32::ln`; the second half pins glibc's
//! algorithms and holds only where the libm is glibc 2.36's (or computes
//! the same bits). Run them with
//! `cargo test --release -p anole-tensor --test math -- --ignored`.

use anole_tensor::math;

type Scalar = fn(f32) -> f32;
type Kernel = fn(&[f32], &mut [f32]);

const ROUTINES: [(&str, Scalar, Kernel); 3] = [
    ("tanh", math::tanh, math::tanh_into),
    ("exp", math::exp, math::exp_into),
    ("ln", math::ln, math::ln_into),
];

/// (input, output) bit pairs printed by `f32::tanh`, `f32::exp` and
/// `f32::ln` on x86-64 with glibc 2.36. They cover each routine's branches:
/// for `tanh`, zero, |x| < 2⁻⁵⁵, `expm1f`'s k = 0, −1, −2, 3, 12, 35 and 58,
/// the |x| ≥ 22 cut, infinity and NaN (a signalling one made quiet); for
/// `exp`, the main path from 1e-10 to the top of [88, 88.72], overflow, the
/// subnormal results, the two underflow cuts and ±inf; for `ln`, ln 1 = 0,
/// the clamp bounds the losses use, subnormals, zeros, negatives and the
/// largest and smallest normals.
const PINNED: [(&str, [(u32, u32); 16]); 3] = [
    (
        "tanh",
        [
            (0x0000_0000, 0x0000_0000), // 0
            (0x8000_0000, 0x8000_0000), // -0
            (0x1e3c_e508, 0x1e3c_e508), // 1e-20
            (0x3dcc_cccd, 0x3dcc_1ebc), // 0.1
            (0x3e99_999a, 0x3e95_26ed), // 0.3
            (0xbf40_0000, 0xbf22_991f), // -0.75
            (0x3f80_0000, 0x3f42_f7d6), // 1
            (0xbf80_0000, 0xbf42_f7d6), // -1
            (0x4080_0000, 0x3f7f_d40c), // 4
            (0x4140_0000, 0x3f80_0000), // 12
            (0xc1a0_0000, 0xbf80_0000), // -20
            (0x41af_ffff, 0x3f80_0000), // 21.999998
            (0x41b0_0000, 0x3f80_0000), // 22
            (0xff80_0000, 0xbf80_0000), // -inf
            (0x7fc0_0000, 0x7fc0_0000), // NaN
            (0x7fa0_0001, 0x7fe0_0001), // signalling NaN
        ],
    ),
    (
        "exp",
        [
            (0x0000_0000, 0x3f80_0000), // 0
            (0x8000_0000, 0x3f80_0000), // -0
            (0x3f80_0000, 0x402d_f854), // 1
            (0xbf80_0000, 0x3ebc_5ab2), // -1
            (0x3f00_0000, 0x3fd3_094c), // 0.5
            (0x4120_0000, 0x46ac_14ee), // 10
            (0xc120_0000, 0x383e_6bce), // -10
            (0x42b1_0000, 0x7f4c_dcc4), // 88.5
            (0x42b1_7218, 0x7f80_0000), // 88.72284
            (0xc2c8_0000, 0x0000_001b), // -100
            (0xc2cf_0000, 0x0000_0001), // -103.5
            (0xc2d0_0000, 0x0000_0000), // -104
            (0xff80_0000, 0x0000_0000), // -inf
            (0x7f80_0000, 0x7f80_0000), // inf
            (0x2edb_e6ff, 0x3f80_0000), // 1e-10
            (0xffc0_0000, 0xffc0_0000), // NaN
        ],
    ),
    (
        "ln",
        [
            (0x3f80_0000, 0x0000_0000), // 1
            (0x4000_0000, 0x3f31_7218), // 2
            (0x3f00_0000, 0xbf31_7218), // 0.5
            (0x33d6_bf95, 0xc180_f1dc), // 1e-7
            (0x2b8c_bccc, 0xc1dd_0c55), // 1e-12
            (0x3f7f_fffe, 0xb400_0000), // 0.9999999
            (0x0006_ce3e, 0xc2b4_8aa9), // 6.24999e-40
            (0x0000_0001, 0xc2ce_8ed0), // 1e-45
            (0x0000_0000, 0xff80_0000), // 0
            (0x8000_0000, 0xff80_0000), // -0
            (0xbf80_0000, 0xffc0_0000), // -1
            (0x7f80_0000, 0x7f80_0000), // inf
            (0x7fc0_0000, 0x7fc0_0000), // NaN
            (0x7f7f_ffff, 0x42b1_7218), // f32::MAX
            (0x0080_0000, 0xc2ae_ac50), // f32::MIN_POSITIVE
            (0x3f33_0000, 0xbeb7_3077), // 0.69921875
        ],
    ),
];

/// FNV-1a (64-bit) of glibc's output bits, little-endian, over every
/// 4,099th bit pattern in ascending order, recorded from `f32::tanh`,
/// `f32::exp` and `f32::ln` on x86-64 with glibc 2.36. A million outputs
/// per routine pin the ports far more tightly than the table above; a
/// change that moves only a few outputs is left to the ignored sweeps.
const STRIDED_FNV: [(&str, u64); 3] = [
    ("tanh", 0xf9b8_c6a9_7656_4d6b),
    ("exp", 0xfd94_9e0a_46fb_b207),
    ("ln", 0xf305_6827_088b_62bd),
];

/// Bit patterns where some routine changes branch, table entry or rounding
/// regime; the tests take each with 32 neighbours on each side, both signs.
const EDGES: [u32; 23] = [
    0x0000_0000, // zero; the smallest subnormals
    0x0080_0000, // the smallest normal; the largest subnormals below it
    0x7f80_0000, // infinity; the largest finite values and the first NaNs
    0x7fc0_0000, // the quiet NaN
    0x7fff_ffff, // the NaN with every payload bit
    0x3f80_0000, // 1: ln's exact zero, tanh's switch of expm1 argument
    0x41b0_0000, // tanh: |x| >= 22 saturates
    0x2400_0000, // tanh: |x| < 2^-55 returns x(1+x)
    0x3280_0000, // tanh: 2|x| = 2^-25, where expm1 returns its argument
    0x3e31_7218, // tanh: 2|x| = ln2/2, the k = 0 cut
    0x3f05_1592, // tanh: 2|x| = 1.5 ln2, the k = -1 cut
    0x3f5d_ce9e, // tanh: 2|x| = 2.5 ln2, between k = -2 and -3
    0x40f9_8872, // tanh: 2|x| = 22.5 ln2, between k = 22 and 23
    0x419c_a6b9, // tanh: 2|x| = 56.5 ln2, between k = 56 and 57
    0x4115_b844, // tanh: 2|x| = 27 ln2, expm1's large-argument cut
    0x42b0_0000, // exp: |x| >= 88 takes the special-case branch
    0x42b1_7217, // exp: the overflow cut
    0xc2ce_8ecf, // exp: results round to the least subnormal
    0xc2cf_f1b4, // exp: underflow to zero
    0x3f33_0000, // ln: the offset of its 16 subintervals
    0x3f73_0000, // ln: the boundary of subintervals 7 and 8
    0x3f7b_0000, // ln: the boundary of subintervals 8 and 9
    0x3fb3_0000, // ln: the wrap of the subinterval index
];

/// Every 4,099th bit pattern, then the edges with their neighbours.
fn sample() -> Vec<f32> {
    let strided = (0..=u32::MAX / 4099).map(|i| i * 4099);
    let edges = EDGES
        .iter()
        .flat_map(|&b| (0..=64u32).map(move |d| b.wrapping_add(d).wrapping_sub(32)));
    strided
        .chain(edges.flat_map(|b| [b, b ^ 0x8000_0000]))
        .map(f32::from_bits)
        .collect()
}

#[test]
fn scalar_ports_return_the_recorded_glibc_bits() {
    for ((name, scalar, kernel), (pinned_name, pairs)) in ROUTINES.iter().zip(PINNED) {
        assert_eq!(*name, pinned_name);
        let xs: Vec<f32> = pairs.iter().map(|&(x, _)| f32::from_bits(x)).collect();
        let mut ys = vec![0.0; xs.len()];
        kernel(&xs, &mut ys);
        for (&(x, want), y) in pairs.iter().zip(ys) {
            assert_eq!(
                scalar(f32::from_bits(x)).to_bits(),
                want,
                "{name}({x:#010x}) port"
            );
            assert_eq!(y.to_bits(), want, "{name}({x:#010x}) kernel");
        }
    }
}

#[test]
fn scalar_ports_hash_like_glibc_on_every_4099th_bit_pattern() {
    for ((name, scalar, _), (pinned_name, want)) in ROUTINES.iter().zip(STRIDED_FNV) {
        assert_eq!(*name, pinned_name);
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for i in 0..=u32::MAX / 4099 {
            for byte in scalar(f32::from_bits(i * 4099)).to_bits().to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        assert_eq!(hash, want, "{name}: {hash:#018x}");
    }
}

#[test]
fn slice_kernels_match_the_scalar_ports_at_every_width() {
    let xs = sample();
    for (name, scalar, kernel) in ROUTINES {
        let want: Vec<u32> = xs.iter().map(|&x| scalar(x).to_bits()).collect();
        let mut out = vec![0.0f32; xs.len()];
        for width in [1, 7, 8, 9, 63, 64, 65, 2048] {
            out.fill(f32::NAN);
            for (x, o) in xs.chunks(width).zip(out.chunks_mut(width)) {
                kernel(x, o);
            }
            let bad: Vec<_> = xs
                .iter()
                .zip(out.iter().zip(&want))
                .filter(|(_, (o, &w))| o.to_bits() != w)
                .map(|(x, (o, w))| (x.to_bits(), o.to_bits(), *w))
                .take(5)
                .collect();
            assert!(
                bad.is_empty(),
                "{name} at width {width}: (input, kernel, port) {bad:08x?}"
            );
        }
    }
}

#[test]
#[should_panic(expected = "output length")]
fn slice_kernels_reject_an_output_of_another_length() {
    math::exp_into(&[1.0, 2.0], &mut [0.0]);
}

/// Compares the kernel with the scalar port, and the port with `libm`, on
/// all 2³² inputs, split over a few threads; returns the two mismatch
/// counts.
fn sweep(scalar: Scalar, kernel: Kernel, libm: Scalar) -> (u64, u64) {
    const BLOCK: u64 = 1 << 16;
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(8) as u64;
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|w| {
                scope.spawn(move || {
                    let (mut xs, mut out) =
                        (vec![0.0f32; BLOCK as usize], vec![0.0f32; BLOCK as usize]);
                    let (mut kernel_bad, mut port_bad) = (0u64, 0u64);
                    for block in (w..(1u64 << 32) / BLOCK).step_by(threads as usize) {
                        for (i, x) in xs.iter_mut().enumerate() {
                            *x = f32::from_bits((block * BLOCK) as u32 + i as u32);
                        }
                        kernel(&xs, &mut out);
                        for (&x, &y) in xs.iter().zip(&out) {
                            let port = scalar(x).to_bits();
                            kernel_bad += u64::from(y.to_bits() != port);
                            port_bad += u64::from(libm(x).to_bits() != port);
                        }
                    }
                    (kernel_bad, port_bad)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|h| h.join().expect("sweep worker panicked"))
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
    })
}

fn assert_exhaustive(name: &str, scalar: Scalar, kernel: Kernel, libm: Scalar) {
    let (kernel_bad, port_bad) = sweep(scalar, kernel, libm);
    println!(
        "{name}: kernel vs port {kernel_bad} and port vs libm {port_bad} mismatches out of 2^32"
    );
    assert_eq!(kernel_bad, 0, "{name}: kernel vs port");
    assert_eq!(port_bad, 0, "{name}: port vs libm");
}

#[test]
#[ignore = "all 2^32 inputs; about 90 s in release mode on 2 cores"]
fn exhaustive_tanh_matches_the_port_and_libm() {
    assert_exhaustive("tanh", math::tanh, math::tanh_into, f32::tanh);
}

#[test]
#[ignore = "all 2^32 inputs; about 90 s in release mode on 2 cores"]
fn exhaustive_exp_and_ln_match_the_ports_and_libm() {
    assert_exhaustive("exp", math::exp, math::exp_into, f32::exp);
    assert_exhaustive("ln", math::ln, math::ln_into, f32::ln);
}
