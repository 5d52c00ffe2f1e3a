//! Fuzzing the persistence layer: random store images, random corruption.
//!
//! The `isl-persist` on-disk format promises two things that are easy to
//! claim and easy to get wrong:
//!
//! 1. **Exact round trips** — an image written by
//!    [`isl_persist::save_bytes`] loads back bit-identically through
//!    [`isl_persist::load_bytes`], with zero records skipped; so does an
//!    image grown by appended segments (what
//!    [`isl_persist::DiskStore::flush`] leaves on disk), with the last
//!    write of every key winning.
//! 2. **Total, honest loads** — *any* byte sequence loads without a
//!    panic, every surviving record is one that was actually written
//!    (checksum-verified, never a spliced hybrid), and everything else is
//!    *counted* as skipped rather than silently dropped.
//!
//! [`run_persist_campaign`] turns those promises into a standing
//! adversarial process: each iteration builds a random record set as a
//! single image and as a base plus appended segments with superseding
//! duplicates, checks the clean round trips, then attacks both images
//! with bit flips, byte runs of garbage, truncation and duplicated
//! regions, and re-loads. A violation is caught (panics included, via
//! `catch_unwind`), minimised by byte-range delta-debugging and reported
//! as a replayable [`PersistFailure`] — the fixture files under
//! `tests/corpus/persist/` replay through CI forever after
//! ([`write_fixtures`] generates the canonical set).

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use isl_persist::{encode_record, load_bytes, save_bytes, LoadReport, RawRecord};

use crate::rng::Rng;

/// A minimised persistence finding: the corrupted image plus what went
/// wrong when it was loaded.
#[derive(Debug, Clone)]
pub struct PersistFailure {
    /// Name for the persisted fixture (`shrunk-<seed>-<iteration>`).
    pub name: String,
    /// What the load did wrong (panic message or invariant violation).
    pub detail: String,
    /// The (shrunk) image that triggers it — replay with
    /// [`replay_image`].
    pub image: Vec<u8>,
}

/// Outcome tally of a persistence campaign ([`run_persist_campaign`]).
#[derive(Debug, Clone, Default)]
pub struct PersistCampaignReport {
    /// Iterations attempted.
    pub iterations: usize,
    /// Clean single images that round-tripped bit-identically.
    pub round_trips: usize,
    /// Clean appended images that loaded exactly the last write of every
    /// key, nothing skipped.
    pub appended_round_trips: usize,
    /// Corrupted images loaded (each iteration attacks several times).
    pub attacks: usize,
    /// Corrupt records skipped — and counted — across all attacked loads.
    pub records_skipped: usize,
    /// Version-bump loads that correctly invalidated wholesale.
    pub invalidations: usize,
    /// Minimised violations (empty on a healthy format).
    pub failures: Vec<PersistFailure>,
}

/// The app version the campaign stamps its images with (arbitrary but
/// fixed so fixtures stay replayable).
pub const FUZZ_APP_VERSION: u64 = 0xF022;

fn random_records(rng: &mut Rng) -> Vec<RawRecord> {
    let n = 1 + rng.below(8);
    (0..n)
        .map(|i| {
            // An index prefix keeps keys unique, so last-wins dedup
            // cannot legitimately drop a record during the round trip.
            let mut key = vec![i as u8];
            for _ in 0..rng.below(32) {
                key.push(rng.u64() as u8);
            }
            let value = (0..rng.below(160)).map(|_| rng.u64() as u8).collect();
            RawRecord {
                kind: rng.below(7) as u8,
                stamp: i as u64,
                key,
                value,
            }
        })
        .collect()
}

/// Every `(stamp, value)` written under each `(kind, key)`, oldest first.
pub type Written = BTreeMap<(u8, Vec<u8>), Vec<(u64, Vec<u8>)>>;

fn by_key(records: &[RawRecord]) -> Written {
    let mut written = Written::new();
    for r in records {
        written
            .entry((r.kind, r.key.clone()))
            .or_default()
            .push((r.stamp, r.value.clone()));
    }
    written
}

/// A base image of `base` plus one to three appended segments, the shape
/// an appending store leaves on disk. Each segment rewrites some existing
/// keys with fresh values and newer stamps (superseding duplicates) and
/// adds new keys; every record goes through the store's one encoder.
/// Returns the image and everything written.
fn appended_image(rng: &mut Rng, base: &[RawRecord]) -> (Vec<u8>, Written) {
    let mut written = by_key(base);
    let mut image = save_bytes(FUZZ_APP_VERSION, base);
    let mut keys: Vec<(u8, Vec<u8>)> = written.keys().cloned().collect();
    let mut stamp = base.len() as u64;
    for _ in 0..=rng.below(3) {
        for _ in 0..=rng.below(4) {
            let key = if rng.below(2) == 0 {
                keys[rng.below(keys.len())].clone()
            } else {
                // A 0x80-or-above prefix never collides with the index
                // prefixes of `random_records`, nor with another new key.
                let key = (rng.below(7) as u8, vec![0x80 | keys.len() as u8, rng.u64() as u8]);
                keys.push(key.clone());
                key
            };
            let value: Vec<u8> = (0..rng.below(160)).map(|_| rng.u64() as u8).collect();
            encode_record(&mut image, key.0, stamp, &key.1, &value);
            written.entry(key).or_default().push((stamp, value));
            stamp += 1;
        }
    }
    (image, written)
}

/// Load `image` and check the corruption contract against everything
/// that was written: the load returns (no panic), and every survivor is
/// bit-identical — stamp and value — to a record written under its key.
/// Returns the load report on success, a violation message on failure.
///
/// # Errors
///
/// A human-readable description of the violated invariant.
pub fn replay_image(image: &[u8], written: &Written) -> Result<LoadReport, String> {
    let report = catch_unwind(AssertUnwindSafe(|| load_bytes(image, FUZZ_APP_VERSION)))
        .map_err(|p| {
            let msg = p
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".into());
            format!("load_bytes panicked: {msg}")
        })?;
    for r in &report.records {
        match written.get(&(r.kind, r.key.clone())) {
            Some(versions) if versions.iter().any(|(s, v)| (*s, v) == (r.stamp, &r.value)) => {}
            Some(_) => {
                return Err(format!(
                    "survivor (kind {}, key {:02x?}) has a stamp and value never written",
                    r.kind, r.key
                ))
            }
            None => {
                return Err(format!(
                    "survivor (kind {}, key {:02x?}) was never written at all",
                    r.kind, r.key
                ))
            }
        }
    }
    Ok(report)
}

/// One random corruption of `image` in place.
fn attack(rng: &mut Rng, image: &mut Vec<u8>) {
    if image.is_empty() {
        return;
    }
    match rng.below(4) {
        // Flip 1–8 random bits anywhere in the image.
        0 => {
            for _ in 0..=rng.below(8) {
                let at = rng.below(image.len());
                image[at] ^= 1 << rng.below(8);
            }
        }
        // Overwrite a run with garbage.
        1 => {
            let at = rng.below(image.len());
            let run = 1 + rng.below(24.min(image.len() - at));
            for b in &mut image[at..at + run] {
                *b = rng.u64() as u8;
            }
        }
        // Truncate mid-record.
        2 => image.truncate(rng.below(image.len())),
        // Duplicate a region (stutters record magics past the scanner).
        3 => {
            let at = rng.below(image.len());
            let run = 1 + rng.below(16.min(image.len() - at));
            let dup: Vec<u8> = image[at..at + run].to_vec();
            let insert = rng.below(image.len());
            image.splice(insert..insert, dup);
        }
        _ => unreachable!(),
    }
}

/// Byte-range delta-debugging: repeatedly try deleting chunks of the
/// image, keeping each deletion only while `failing` still holds, until a
/// full pass removes nothing. Bounded by `budget` predicate evaluations.
fn shrink_image(mut image: Vec<u8>, mut budget: usize, failing: impl Fn(&[u8]) -> bool) -> Vec<u8> {
    let mut chunk = (image.len() / 2).max(1);
    while budget > 0 {
        let mut removed = false;
        let mut at = 0;
        while at < image.len() && budget > 0 {
            let end = (at + chunk).min(image.len());
            let mut candidate = Vec::with_capacity(image.len() - (end - at));
            candidate.extend_from_slice(&image[..at]);
            candidate.extend_from_slice(&image[end..]);
            budget -= 1;
            if failing(&candidate) {
                image = candidate;
                removed = true;
            } else {
                at = end;
            }
        }
        if !removed {
            if chunk == 1 {
                break;
            }
            chunk = (chunk / 2).max(1);
        }
    }
    image
}

/// Run a seeded persistence campaign: `iterations` random record sets,
/// each round-tripped clean, version-bumped, grown into an appended image
/// and round-tripped again, and both images attacked with random
/// corruption several times. Violations are shrunk (`shrink_budget`
/// predicate evaluations each; 0 keeps raw images) and reported.
pub fn run_persist_campaign(
    iterations: usize,
    seed: u64,
    shrink_budget: usize,
) -> PersistCampaignReport {
    let _span = isl_telemetry::span("fuzz", "persist campaign");
    let mut rng = Rng::new(seed);
    let mut report = PersistCampaignReport::default();
    for i in 0..iterations {
        report.iterations += 1;
        isl_telemetry::add("fuzz.persist.iters", 1);
        let records = random_records(&mut rng);
        let originals = by_key(&records);
        let clean = save_bytes(FUZZ_APP_VERSION, &records);

        // 1. Clean round trip: bit-identical, nothing skipped.
        match replay_image(&clean, &originals) {
            Ok(r) if r.records.len() == originals.len() && r.skipped_corrupt == 0 => {
                report.round_trips += 1;
            }
            Ok(r) => report.failures.push(PersistFailure {
                name: format!("shrunk-{seed:#x}-{i}-roundtrip"),
                detail: format!(
                    "clean image lost records: {} of {} survived, {} skipped",
                    r.records.len(),
                    originals.len(),
                    r.skipped_corrupt
                ),
                image: clean.clone(),
            }),
            Err(detail) => report.failures.push(PersistFailure {
                name: format!("shrunk-{seed:#x}-{i}-roundtrip"),
                detail,
                image: clean.clone(),
            }),
        }

        // 2. Version bump invalidates wholesale — never a partial load.
        let bumped = load_bytes(&clean, FUZZ_APP_VERSION + 1);
        if bumped.invalidated && bumped.records.is_empty() {
            report.invalidations += 1;
        } else {
            report.failures.push(PersistFailure {
                name: format!("shrunk-{seed:#x}-{i}-version"),
                detail: format!(
                    "version bump leaked {} records (invalidated: {})",
                    bumped.records.len(),
                    bumped.invalidated
                ),
                image: clean.clone(),
            });
        }

        // 3. Appended image: the last write of every key wins, nothing
        //    skipped.
        let (appended, appended_written) = appended_image(&mut rng, &records);
        match replay_image(&appended, &appended_written) {
            Ok(r) => {
                let last_wins = r.records.len() == appended_written.len()
                    && r.records.iter().all(|rec| {
                        appended_written[&(rec.kind, rec.key.clone())].last()
                            == Some(&(rec.stamp, rec.value.clone()))
                    });
                if last_wins && r.skipped_corrupt == 0 {
                    report.appended_round_trips += 1;
                } else {
                    report.failures.push(PersistFailure {
                        name: format!("shrunk-{seed:#x}-{i}-appended"),
                        detail: format!(
                            "clean appended image: {} of {} keys, last write wins: {last_wins}, \
                             {} skipped",
                            r.records.len(),
                            appended_written.len(),
                            r.skipped_corrupt
                        ),
                        image: appended.clone(),
                    });
                }
            }
            Err(detail) => report.failures.push(PersistFailure {
                name: format!("shrunk-{seed:#x}-{i}-appended"),
                detail,
                image: appended.clone(),
            }),
        }

        // 4. Random corruption of both images: survivors must be honest,
        //    panics are findings.
        for (clean, written) in [(&clean, &originals), (&appended, &appended_written)] {
            for _ in 0..3 {
                report.attacks += 1;
                let mut image = clean.clone();
                attack(&mut rng, &mut image);
                match replay_image(&image, written) {
                    Ok(r) => report.records_skipped += r.skipped_corrupt,
                    Err(detail) => {
                        let shrunk = if shrink_budget > 0 {
                            shrink_image(image.clone(), shrink_budget, |img| {
                                replay_image(img, written).is_err()
                            })
                        } else {
                            image
                        };
                        isl_telemetry::add("fuzz.persist.failures", 1);
                        report.failures.push(PersistFailure {
                            name: format!("shrunk-{seed:#x}-{i}-corrupt"),
                            detail,
                            image: shrunk,
                        });
                    }
                }
            }
        }
    }
    report
}

/// Write the canonical corruption fixtures into `dir`: one small store
/// image per attack family, each expected to load with the survivor
/// counts recorded in `MANIFEST.txt` (`<file> <records> <survivors>` per
/// line). The tests crate replays these in CI; regenerate with
/// `isl-fuzz persist --write-fixtures DIR` after a format-version bump.
///
/// # Errors
///
/// A message naming the file that could not be written.
pub fn write_fixtures(dir: &std::path::Path) -> Result<Vec<String>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    // One record per artifact kind the core store persists (1–6), with
    // deterministic pseudo-random payloads: rich enough that every attack
    // family can lose *some* records while others survive.
    let mut rng = Rng::new(0x1511_F1EC);
    let records: Vec<RawRecord> = (1u8..=6)
        .map(|kind| RawRecord {
            kind,
            stamp: u64::from(kind),
            key: (0..8 + usize::from(kind)).map(|_| rng.u64() as u8).collect(),
            value: (0..24 * usize::from(kind)).map(|_| rng.u64() as u8).collect(),
        })
        .collect();
    let originals = by_key(&records);
    let clean = save_bytes(FUZZ_APP_VERSION, &records);
    let total = originals.len();

    let mut fixtures: Vec<(String, Vec<u8>)> = vec![("clean".into(), clean.clone())];
    // One deterministic image per attack family, derived from the same
    // clean image so the manifest's survivor counts stay meaningful.
    for (name, kick) in [
        ("bit-flips", 0usize),
        ("garbage-run", 1),
        ("truncated", 2),
        ("duplicated-region", 3),
    ] {
        // Re-seed per family so editing one family never shifts another.
        let mut frng = Rng::new(0x1511_F1EC ^ kick as u64);
        let mut image = clean.clone();
        loop {
            attack(&mut frng, &mut image);
            // Keep attacking until this family's image actually loses a
            // record, so every fixture exercises the skip path.
            let r = load_bytes(&image, FUZZ_APP_VERSION);
            if r.records.len() < total || r.skipped_corrupt > 0 {
                break;
            }
            image = clean.clone();
        }
        fixtures.push((name.into(), image));
    }

    let mut manifest = String::new();
    let mut written = Vec::new();
    for (name, image) in &fixtures {
        let report = replay_image(image, &originals)
            .map_err(|e| format!("fixture {name} violates the contract: {e}"))?;
        let file = format!("{name}.islstore");
        std::fs::write(dir.join(&file), image)
            .map_err(|e| format!("write {file}: {e}"))?;
        manifest.push_str(&format!(
            "{file} {total} {} {}\n",
            report.records.len(),
            report.skipped_corrupt
        ));
        written.push(file);
    }
    std::fs::write(dir.join("MANIFEST.txt"), &manifest)
        .map_err(|e| format!("write MANIFEST.txt: {e}"))?;
    Ok(written)
}

/// Replay every fixture in `dir` against its `MANIFEST.txt` expectations.
/// Returns the fixture names on success.
///
/// # Errors
///
/// A message naming the first fixture whose load panics, produces a
/// dishonest survivor count, or drifts from the manifest.
pub fn replay_fixtures(dir: &std::path::Path) -> Result<Vec<String>, String> {
    let manifest = std::fs::read_to_string(dir.join("MANIFEST.txt"))
        .map_err(|e| format!("read {}/MANIFEST.txt: {e}", dir.display()))?;
    let mut names = Vec::new();
    for line in manifest.lines().filter(|l| !l.trim().is_empty()) {
        let mut parts = line.split_whitespace();
        let (file, total, survivors, skipped) = (|| {
            Some((
                parts.next()?,
                parts.next()?.parse::<usize>().ok()?,
                parts.next()?.parse::<usize>().ok()?,
                parts.next()?.parse::<usize>().ok()?,
            ))
        })()
        .ok_or_else(|| format!("bad manifest line: {line:?}"))?;
        let image = std::fs::read(dir.join(file)).map_err(|e| format!("read {file}: {e}"))?;
        let report = catch_unwind(AssertUnwindSafe(|| load_bytes(&image, FUZZ_APP_VERSION)))
            .map_err(|_| format!("{file}: load_bytes panicked"))?;
        if report.records.len() != survivors || report.skipped_corrupt != skipped {
            return Err(format!(
                "{file}: expected {survivors}/{total} survivors ({skipped} skipped), \
                 got {}/{total} ({} skipped)",
                report.records.len(),
                report.skipped_corrupt
            ));
        }
        names.push(file.to_string());
    }
    if names.is_empty() {
        return Err(format!("no fixtures listed in {}/MANIFEST.txt", dir.display()));
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_persist_campaign_is_clean_and_deterministic() {
        let a = run_persist_campaign(40, 0xBADC0DE, 200);
        assert_eq!(a.iterations, 40);
        assert!(
            a.failures.is_empty(),
            "persistence violation: {} ({} bytes)",
            a.failures[0].detail,
            a.failures[0].image.len()
        );
        assert_eq!(a.round_trips, 40);
        assert_eq!(a.appended_round_trips, 40);
        assert_eq!(a.invalidations, 40);
        assert!(a.records_skipped > 0, "no attack ever hit a record");
        let b = run_persist_campaign(40, 0xBADC0DE, 200);
        assert_eq!(a.records_skipped, b.records_skipped);
    }

    #[test]
    fn shrinker_minimises_a_synthetic_failure() {
        // "Failure" = image still contains the byte 0x7F somewhere.
        let image: Vec<u8> = (0..256u32).map(|i| (i % 251) as u8).collect();
        let shrunk = shrink_image(image, 10_000, |img| img.contains(&0x7F));
        assert_eq!(shrunk, vec![0x7F]);
    }

    #[test]
    fn fixtures_round_trip_through_disk() {
        let dir = std::env::temp_dir().join(format!("isl-fuzz-fixtures-{}", std::process::id()));
        let written = write_fixtures(&dir).unwrap();
        assert!(written.len() >= 5);
        let replayed = replay_fixtures(&dir).unwrap();
        assert_eq!(written, replayed);
        std::fs::remove_dir_all(&dir).ok();
    }
}
