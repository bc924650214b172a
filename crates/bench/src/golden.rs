//! Golden tables: text a test must reproduce line for line.
//!
//! A test renders its results, one row per line, and hands them to
//! [`check`]. With `PROMO_BLESS_COUNTS` set in the environment the file is
//! rewritten instead, for review as a diff after a deliberate change.

use std::path::Path;

/// The 64-bit FNV-1a digest of `bytes`: a short, stable stand-in for a
/// long text (printed IL, a remark stream) in a golden row.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |digest, &b| {
        (digest ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Asserts that `actual` equals the golden file at `path`, naming the
/// first row that differs; or rewrites the file when blessing.
///
/// # Panics
///
/// Panics on the first differing row, on a different row count, or if
/// the file cannot be read (or, when blessing, written).
pub fn check(path: &Path, actual: &str) {
    if std::env::var_os("PROMO_BLESS_COUNTS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden file has a directory"))
            .expect("golden dir is writable");
        std::fs::write(path, actual).expect("golden file is writable");
        return;
    }
    let expected = std::fs::read_to_string(path).expect("golden file exists");
    for (want, got) in expected.lines().zip(actual.lines()) {
        assert_eq!(got, want, "golden row changed");
    }
    assert_eq!(expected.lines().count(), actual.lines().count());
}
