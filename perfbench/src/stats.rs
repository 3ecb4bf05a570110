//! Order statistics and process-level gauges.

/// Median of a sample (mean of the middle pair for even sizes).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest order statistic with at least ten samples above it:
/// `(value, percentile, samples)`. With fewer than eleven samples there
/// is no such statistic and the maximum stands in for it.
pub fn tail(xs: &[f64]) -> (f64, f64, usize) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "tail of an empty sample");
    let k = if n >= 11 { n - 11 } else { n - 1 };
    (v[k], 100.0 * (k + 1) as f64 / n as f64, n)
}

/// Mean of a sample (0 for an empty one).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn uname(buf: *mut [u8; 390]) -> i32;
}

/// Peak resident set size of this process in MiB (`ru_maxrss`, the
/// same high-water mark as `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let mut r = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `Rusage` matches the 64-bit Linux `struct rusage` layout
    // (two timevals, then fourteen longs), and the pointer is valid for
    // the call. RUSAGE_SELF is 0.
    let rc = unsafe { getrusage(0, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    r.maxrss as f64 / 1024.0
}

/// Kernel release string, from `uname(2)`.
pub fn kernel() -> String {
    let mut buf = [0u8; 390];
    // SAFETY: Linux `struct utsname` is six 65-byte char arrays (390
    // bytes); the buffer is exactly that size and valid for the call.
    let rc = unsafe { uname(&mut buf) };
    if rc != 0 {
        return "unknown".to_string();
    }
    let release = &buf[130..195];
    let end = release
        .iter()
        .position(|&b| b == 0)
        .unwrap_or(release.len());
    String::from_utf8_lossy(&release[..end]).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_above() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (v, p, n) = tail(&xs);
        assert_eq!((v, n), (90.0, 100));
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), 10);
        assert!((p - 90.0).abs() < 1e-9);
    }

    #[test]
    fn median_of_even_sample() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
