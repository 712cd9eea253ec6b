//! Deterministic fuzzing of the v3 session decoder over a committed
//! fixture (`fixtures/v3_dataset`).
//!
//! A SplitMix64 byte mutator applies bit flips, truncations at header,
//! column and checksum offsets, inflated record counts, garbled spec
//! lengths and drawn timestamps (NaN, ±inf, negative, far future) —
//! sometimes re-sealing the checksum so the mutation reaches the decoder
//! stages behind it. Properties: the decoder never panics, every failure
//! is a typed [`DecodeError`] (and surfaces through `load_all_lossy` as
//! `MalformedSession` carrying exactly that error's text), and peak heap
//! use while decoding is bounded by the input size, whatever record count
//! the input claims. Whatever loads then runs every trace analytic and
//! an `OnlineAggregates` fold, each within the input size plus a fixed
//! number of [`MAX_BINS`]-long vectors, whatever times it holds. The
//! iteration count is fixed, so the run is the same everywhere.

use analysis::OnlineAggregates;
use measure::dataset::{checksum, decode_session, Dataset, DecodeError, LoadError};
use ran::kpi::{Direction, KpiTrace, FLAG_COLUMNS, MAX_BINS, VALUE_COLUMN_WIDTHS};
use ran::sink::SlotSink;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

/// Tracks live and peak heap bytes allocated by the current thread.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn track(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every call forwards to `System` unchanged; the bookkeeping only
// touches const-initialised thread-locals, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            track(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f`, returning its result and the peak extra heap bytes held by
/// this thread meanwhile.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let result = f();
    let peak = PEAK.with(Cell::get) - base;
    (result, peak.max(0) as usize)
}

/// Decode `bytes`, returning the result and the peak extra heap bytes
/// held by this thread while decoding.
fn decode_measured(bytes: &[u8]) -> (Result<measure::SessionResult, DecodeError>, usize) {
    measured(|| decode_session(bytes))
}

/// Bytes of one [`MAX_BINS`]-long vector of 8-byte words.
const GRID_BYTES: usize = 8 * MAX_BINS;

/// Bin widths the analytics run at: throughput seconds and Fig. 13's
/// 60 ms.
const BINS_S: [f64; 2] = [1.0, 0.06];

/// Run every trace analytic and an `OnlineAggregates` fold over `trace`,
/// returning the largest peak of extra heap bytes any one of them held.
/// The fold holds the most at once: its three series at up to twice
/// their length while they grow, a copy while `finish` trims them and
/// one output series, so eight grid-long vectors bound every analytic.
fn analytics_peak(trace: &KpiTrace) -> usize {
    let mut peak = 0;
    let mut run = |f: &dyn Fn()| peak = peak.max(measured(f).1);
    run(&|| {
        let _ = (trace.duration_s(), trace.delivered_bits_total(), trace.dl_re_allocations());
        let _ = (trace.modulation_shares(), trace.layer_shares(), trace.dl_bler(), trace.mean_cqi());
    });
    for bin_s in BINS_S {
        for dir in [Direction::Dl, Direction::Ul] {
            run(&|| {
                let _ = trace.mean_throughput_mbps(dir);
            });
            run(&|| {
                let _ = trace.throughput_series_mbps(dir, bin_s);
            });
            run(&|| {
                let _ = trace.mean_throughput_mbps_where_cqi(dir, bin_s, 12);
                let _ = trace.mean_throughput_mbps_where_cqi_below(dir, bin_s, 10);
            });
        }
        run(&|| {
            let mut agg = OnlineAggregates::new(bin_s);
            agg.push_block(&trace.iter().collect::<Vec<_>>());
            agg.finish();
            let _ = (agg.throughput_series_mbps(Direction::Dl), agg.bin_coverage());
        });
    }
    peak
}

/// One full chunk of preallocated columns: the decoder's fixed cost.
const CHUNK_ALLOC: usize = 4096 * 75 + 4 * 64 * 8;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }
}

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/v3_dataset")
}

fn fixture_bytes() -> (String, Vec<u8>) {
    let ds = Dataset::at(fixture_dir());
    let name = ds.manifest().expect("fixture manifest").sessions[0].clone();
    let bytes = std::fs::read(fixture_dir().join("sessions").join(&name)).expect("fixture session");
    (name, bytes)
}

/// Byte offsets of the fixture's sections: the end of the fixed header,
/// the `len` word, every column start, and the checksum.
fn section_offsets(bytes: &[u8]) -> Vec<usize> {
    let len_at = len_offset(bytes);
    let len = u64::from_le_bytes(bytes[len_at..len_at + 8].try_into().unwrap()) as usize;
    let mut offsets = vec![0, 1, 7, 8, 12, 16, (16 + len_at) / 2, len_at, len_at + 4];
    let mut at = len_at + 8;
    for width in VALUE_COLUMN_WIDTHS {
        offsets.push(at);
        at += (len * width).next_multiple_of(8);
    }
    for _ in 0..FLAG_COLUMNS {
        offsets.push(at);
        at += len.div_ceil(64) * 8;
    }
    assert_eq!(
        at + 8,
        bytes.len(),
        "fixture layout matches the documented columns"
    );
    offsets.extend([at, at + 1, at + 7]);
    offsets
}

/// Recompute the trailing checksum, so a mutation is judged by the
/// decoder stages behind the checksum check.
fn reseal(bytes: &mut [u8]) {
    if bytes.len() >= 8 {
        let body = bytes.len() - 8;
        let sum = checksum(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
    }
}

/// Offset of the `len` word: just past the 8-aligned spec blob.
fn len_offset(bytes: &[u8]) -> usize {
    let spec_len = u32::from_le_bytes(bytes[12..16].try_into().unwrap()) as usize;
    16 + spec_len.next_multiple_of(8)
}

/// Timestamps the time-column mutator draws from: the loader refuses
/// the first five; the last three load and must not blow up a grid.
const DRAWN_TIMES: [f64; 8] =
    [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -1e-300, 1e15, 1e300, 3600.0];

#[test]
fn fixture_decodes_and_reencodes_to_identical_bytes() {
    let (_, bytes) = fixture_bytes();
    let (record, peak) = decode_measured(&bytes);
    let record = record.expect("the committed fixture decodes");
    assert!(
        record.trace.len() > 64,
        "fixture spans more than one flag word"
    );
    // The allocator hook sees the decoder's one preallocated chunk.
    assert!(
        peak >= 4096 * 75 && peak <= 8 * bytes.len() + CHUNK_ALLOC,
        "{peak}"
    );
    assert_eq!(measure::encode_session(&record.spec, &record.trace), bytes);
}

#[test]
fn targeted_truncations_and_forged_headers_are_typed() {
    let (_, clean) = fixture_bytes();
    for at in section_offsets(&clean) {
        for sealed in [false, true] {
            let mut cut = clean[..at].to_vec();
            // Re-sealing a cut inside the fixed header would overwrite it.
            if sealed && at >= 24 {
                reseal(&mut cut);
            }
            let err = decode_session(&cut).expect_err("a truncated file never decodes");
            assert!(
                matches!(
                    err,
                    DecodeError::Truncated { .. } | DecodeError::LengthMismatch { .. }
                ),
                "cut at {at} (sealed {sealed}): {err:?}"
            );
        }
    }

    let len_at = len_offset(&clean);
    let len = u64::from_le_bytes(clean[len_at..len_at + 8].try_into().unwrap());
    for forged in [len + 1, len * 2, 1 << 40, u64::MAX / 8, u64::MAX] {
        let mut inflated = clean.clone();
        inflated[len_at..len_at + 8].copy_from_slice(&forged.to_le_bytes());
        reseal(&mut inflated);
        let (result, peak) = decode_measured(&inflated);
        assert!(
            matches!(result, Err(DecodeError::LengthMismatch { .. })),
            "len {forged}: {result:?}"
        );
        assert!(
            peak < 4096,
            "len {forged} allocated {peak} bytes before rejecting"
        );
    }

    for spec_len in [0u32, 1, 7, 9, u32::MAX, u32::MAX / 2, clean.len() as u32] {
        let mut garbled = clean.clone();
        garbled[12..16].copy_from_slice(&spec_len.to_le_bytes());
        reseal(&mut garbled);
        assert!(
            decode_session(&garbled).is_err(),
            "spec_len {spec_len} decoded"
        );
    }
}

#[test]
fn mutated_session_files_fail_only_with_typed_errors() {
    const ITERATIONS: u64 = 3000;
    let (name, clean) = fixture_bytes();
    let offsets = section_offsets(&clean);
    let len_at = len_offset(&clean);
    let len = u64::from_le_bytes(clean[len_at..len_at + 8].try_into().unwrap()) as usize;
    let time_at = len_at + 8 + len * 8;
    let mut rng = SplitMix64(0x5e55_1011_f022);
    let scratch = std::env::temp_dir().join(format!("midband5g-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(scratch.join("sessions")).unwrap();
    std::fs::copy(
        fixture_dir().join("manifest.json"),
        scratch.join("manifest.json"),
    )
    .unwrap();
    let mut outcomes = [0u32; 2];
    let mut far_future = 0u32;

    for iteration in 0..ITERATIONS {
        let mut bytes = clean.clone();
        let mutations = 1 + rng.below(3);
        let mut single_flip = mutations == 1;
        for _ in 0..mutations {
            match rng.below(6) {
                0 | 1 => {
                    let at = rng.below(bytes.len());
                    if let Some(b) = bytes.get_mut(at) {
                        *b ^= 1 << rng.below(8);
                    }
                }
                2 => {
                    single_flip = false;
                    let at = if rng.below(2) == 0 {
                        offsets[rng.below(offsets.len())]
                    } else {
                        rng.below(bytes.len() + 1)
                    };
                    bytes.truncate(at + rng.below(3));
                }
                5 if bytes.len() >= time_at + len * 8 + 8 => {
                    single_flip = false;
                    let at = time_at + 8 * rng.below(len);
                    let time = DRAWN_TIMES[rng.below(DRAWN_TIMES.len())];
                    bytes[at..at + 8].copy_from_slice(&time.to_bits().to_le_bytes());
                    reseal(&mut bytes);
                }
                3 if bytes.len() >= len_at + 8 => {
                    single_flip = false;
                    let forged = rng.next() >> rng.below(64);
                    bytes[len_at..len_at + 8].copy_from_slice(&forged.to_le_bytes());
                }
                _ if bytes.len() >= 16 => {
                    single_flip = false;
                    let garbled = (rng.next() >> rng.below(32)) as u32;
                    bytes[12..16].copy_from_slice(&garbled.to_le_bytes());
                }
                _ => {}
            }
        }
        let sealed = rng.below(2) == 0;
        if sealed {
            reseal(&mut bytes);
        }

        let (result, peak) = match std::panic::catch_unwind(|| decode_measured(&bytes)) {
            Ok(decoded) => decoded,
            Err(_) => panic!("iteration {iteration}: decoder panicked"),
        };
        if single_flip && !sealed {
            // A single flipped bit changes one checksummed word (or the
            // checksum itself) and must always be caught.
            assert!(
                result.is_err(),
                "iteration {iteration}: a bit flip went undetected"
            );
        }
        if bytes.first() == Some(&0x89) {
            assert!(
                peak <= 8 * bytes.len() + CHUNK_ALLOC,
                "iteration {iteration}: {peak} heap bytes for a {}-byte input",
                bytes.len()
            );
        }
        if let Ok(record) = &result {
            far_future += u32::from(record.trace.duration_s() > 1e12);
            let peak = analytics_peak(&record.trace);
            assert!(
                peak <= 8 * bytes.len() + 8 * GRID_BYTES,
                "iteration {iteration}: an analytic held {peak} heap bytes"
            );
        }
        outcomes[usize::from(result.is_err())] += 1;

        // The same bytes through the lossy loader: the decode error
        // reaches `MalformedSession` unchanged.
        if iteration % 100 == 0 {
            std::fs::write(scratch.join("sessions").join(&name), &bytes).unwrap();
            let (records, errors) = Dataset::at(&scratch).load_all_lossy();
            match result {
                Ok(_) => assert!(records.len() == 1 && errors.is_empty(), "{errors:?}"),
                Err(e) => assert_eq!(
                    errors,
                    vec![LoadError::MalformedSession {
                        name: name.clone(),
                        detail: e.to_string()
                    }]
                ),
            }
        }
    }
    // Re-sealed column flips decode; everything else is refused.
    assert!(
        outcomes[0] > 0 && outcomes[1] > outcomes[0],
        "ok/err split {outcomes:?}"
    );
    assert!(far_future > 0, "no far-future timestamp ever loaded");
    let _ = std::fs::remove_dir_all(&scratch);
}
