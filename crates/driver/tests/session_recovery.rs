//! A session that rejects a source stays usable: after each of the ten
//! malformed sources of `benchsuite::MALFORMED` (one per front-end phase
//! and error kind), one session, plain or incremental, must compile the
//! 14 suite programs and the first 20 CI fuzz-campaign programs (seeds
//! from `0xC0FFEE`) to exactly the optimized IL a fresh session prints
//! for each.

use driver::Session;

const FIRST_SEED: u64 = 0xC0FFEE;
const SEEDS: u64 = 20;

fn session(incremental: bool) -> Session {
    Session::builder()
        .threads(Some(1))
        .incremental(incremental)
        .build()
}

/// The optimized IL of `src` on `session`.
fn il(session: &Session, name: &str, src: &str) -> String {
    session
        .compile(src)
        .unwrap_or_else(|e| panic!("{name}: {e}"))
        .module
        .to_string()
}

#[test]
fn sessions_compile_as_fresh_ones_after_each_rejected_source() {
    let programs: Vec<(String, String)> = benchsuite::SUITE
        .iter()
        .map(|b| (b.name.to_string(), b.source.to_string()))
        .chain(
            (FIRST_SEED..FIRST_SEED + SEEDS)
                .map(|s| (format!("seed{s}"), fuzz::generate(s).render())),
        )
        .collect();
    let fresh: Vec<String> = programs
        .iter()
        .map(|(name, src)| il(&session(false), name, src))
        .collect();
    for incremental in [false, true] {
        let session = session(incremental);
        for bad in benchsuite::MALFORMED {
            assert!(session.compile(bad).is_err(), "accepted {bad:?}");
            for ((name, src), want) in programs.iter().zip(&fresh) {
                assert!(
                    il(&session, name, src) == *want,
                    "{name} after rejecting {bad:?} (incremental: {incremental}) \
                     differs from a fresh session's IL"
                );
            }
        }
    }
}
