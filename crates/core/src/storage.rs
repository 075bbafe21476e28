//! Persistent on-device bundle storage.
//!
//! A real MAGNETO phone must survive app restarts: the (possibly
//! personalised) bundle is persisted locally and reloaded at start-up.
//! Persistence is strictly local — writing the bundle to the device's own
//! storage is not a privacy event.
//!
//! Format: one frame for every file, bundle or spooled delta:
//!
//! ```text
//! frame := magic "MGSV" | u32 crc32(body) | u32 len(body) | body
//! body  := u32 model_version | payload
//! ```
//!
//! The CRC-32 catches a half-written file (battery died mid-save) so it
//! is rejected instead of deserialised into garbage, and the stamped
//! [`ModelVersion`] (≥ 1) lets a loader check the payload belongs to
//! the base it expects. Any other magic, or a v0 stamp, is refused.
//!
//! Crash safety: [`save_bundle`] is a two-phase journaled commit. The new
//! frame is first written to a uniquely named temp file (fsync'd), then
//! published as a write-ahead `<name>.journal` sibling (fsync'd parent
//! dir), and only then renamed over the destination. [`load_bundle`]
//! rolls a complete, checksum-valid journal forward and discards a torn
//! one, so a power cut at *any* byte of the save leaves the device able
//! to load either the old or the new bundle — never neither.

use crate::bundle::EdgeBundle;
use crate::error::CoreError;
use crate::version::ModelVersion;
use crate::Result;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Frame magic. The framed payload is prefixed with the
/// [`ModelVersion`] it belongs to, so bundles and spool files carry
/// their base-model version on disk and validate it on load.
const MAGIC: &[u8; 4] = b"MGSV";

/// The 256-entry CRC-32 lookup table (polynomial `0xEDB8_8320`,
/// reflected), computed once at compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3, reflected) — hand-rolled so no new dependency is
/// needed for a checksum. Table-driven: one lookup per input byte
/// instead of the eight shift/xor rounds of the bitwise form.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        let idx = (crc ^ u32::from(b)) & 0xFF;
        crc = (crc >> 8) ^ CRC32_TABLE[idx as usize];
    }
    !crc
}

/// Monotonic counter distinguishing concurrent saves within one process.
static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Serialises the journal-publish + commit renames within this process so
/// two concurrent saves to the same path cannot interleave their
/// journals. Cross-process exclusion is the caller's concern (a phone has
/// exactly one MAGNETO process).
static COMMIT_LOCK: Mutex<()> = Mutex::new(());

fn io_err(e: std::io::Error) -> CoreError {
    CoreError::InvalidBundle(format!("storage: {e}"))
}

/// Sibling path with `.suffix` appended to the *full* file name (not
/// substituted for the extension — `model.v1` and `model.v2` must never
/// share a scratch file, which the old `with_extension("tmp")` scheme
/// allowed).
fn appended_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut name = path
        .file_name()
        .unwrap_or_else(|| std::ffi::OsStr::new("magneto"))
        .to_os_string();
    name.push(suffix);
    path.with_file_name(name)
}

/// The write-ahead journal that rides next to a bundle at `path`.
pub fn journal_path(path: &Path) -> PathBuf {
    appended_suffix(path, ".journal")
}

/// A temp path unique to this (process, save) pair.
fn unique_tmp_path(path: &Path) -> PathBuf {
    let seq = SAVE_SEQ.fetch_add(1, Ordering::Relaxed);
    appended_suffix(path, &format!(".tmp.{}.{seq}", std::process::id()))
}

/// Flush the directory containing `path` so a just-renamed entry survives
/// power loss (a rename is only durable once its directory is).
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    // Directories cannot be opened for writing; a read handle suffices
    // for fsync on every Unix. On platforms where opening a directory
    // fails (e.g. Windows), skip — rename durability is best-effort there.
    if let Ok(dir) = fs::File::open(parent) {
        dir.sync_all()?;
    }
    Ok(())
}

/// Wrap `payload` in the frame: the framed body is
/// `u32 version || payload`, CRC-covered as a whole.
fn frame_payload(payload: &[u8], version: ModelVersion) -> Vec<u8> {
    let mut body = Vec::with_capacity(payload.len() + 4);
    body.extend_from_slice(&version.0.to_le_bytes());
    body.extend_from_slice(payload);
    let mut framed = Vec::with_capacity(body.len() + 12);
    framed.extend_from_slice(MAGIC);
    framed.extend_from_slice(&crc32(&body).to_le_bytes());
    framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
    framed.extend_from_slice(&body);
    framed
}

/// Validate a frame and return the payload slice plus the version it
/// carries, or `None` if the bytes are torn, truncated, corrupt, not
/// this frame, or stamped v0.
fn unframe(bytes: &[u8]) -> Option<(&[u8], ModelVersion)> {
    if bytes.len() < 12 || &bytes[..4] != MAGIC {
        return None;
    }
    let stored_crc = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
    let len = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]) as usize;
    let body = bytes.get(12..12 + len)?;
    if crc32(body) != stored_crc {
        return None;
    }
    let (version, payload) = body.split_first_chunk::<4>()?;
    let version = ModelVersion(u32::from_le_bytes(*version));
    (version.0 != 0).then_some((payload, version))
}

/// Save an arbitrary payload to `path` crash-safely, stamped with the
/// [`ModelVersion`] it belongs to, in the same CRC-32 frame and
/// two-phase journaled commit as [`save_bundle`]. This is the generic
/// persistence primitive the tiered fleet session store uses to page
/// cold per-user deltas out to disk — anything written here survives a
/// power cut at any byte with old-or-new (never torn) semantics, and
/// [`load_framed`] returns the stamp for the loader to validate.
///
/// Protocol (each step durable before the next):
/// 1. write the frame to a uniquely named `…tmp.<pid>.<seq>` sibling and
///    fsync it — a crash here leaves only ignorable scratch;
/// 2. rename it to the write-ahead [`journal_path`] and fsync the parent
///    dir — from here the *new* payload is durable and recovery rolls it
///    forward;
/// 3. rename the journal over `path` and fsync the parent dir again.
///
/// # Errors
/// [`CoreError::InvalidBundle`] wrapping any I/O failure.
pub fn save_framed(payload: &[u8], version: ModelVersion, path: &Path) -> Result<()> {
    let framed = frame_payload(payload, version);
    let tmp = unique_tmp_path(path);
    {
        let mut f = fs::File::create(&tmp).map_err(io_err)?;
        f.write_all(&framed).map_err(io_err)?;
        f.sync_all().map_err(io_err)?;
    }
    let journal = journal_path(path);
    let guard = COMMIT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let committed = fs::rename(&tmp, &journal)
        .and_then(|()| sync_parent_dir(path))
        .and_then(|()| fs::rename(&journal, path))
        .and_then(|()| sync_parent_dir(path));
    drop(guard);
    committed.map_err(io_err)
}

/// Load a payload previously written by [`save_framed`] plus the
/// [`ModelVersion`] its frame carries, first completing any interrupted
/// save via [`recover_journal`].
///
/// # Errors
/// [`CoreError::InvalidBundle`] on I/O failure, bad framing (another
/// magic or a v0 stamp included), or checksum mismatch.
pub fn load_framed(path: &Path) -> Result<(Vec<u8>, ModelVersion)> {
    recover_journal(path)?;
    let bytes = fs::read(path)
        .map_err(|e| CoreError::InvalidBundle(format!("storage read {}: {e}", path.display())))?;
    unframe(&bytes)
        .map(|(payload, version)| (payload.to_vec(), version))
        .ok_or_else(|| {
            CoreError::InvalidBundle(
                "not a MAGNETO storage file, or corrupt / partially written (checksum mismatch)"
                    .into(),
            )
        })
}

/// Save a bundle to `path` crash-safely, with checksum framing — the
/// [`save_framed`] commit protocol over the bundle's wire bytes, stamped
/// with the bundle's version.
///
/// # Errors
/// [`CoreError::InvalidBundle`] wrapping any I/O failure.
pub fn save_bundle(bundle: &EdgeBundle, path: &Path, quantized: bool) -> Result<()> {
    save_framed(&bundle.to_bytes(quantized), bundle.version(), path)
}

/// Inspect `path`'s write-ahead journal, rolling a complete one forward
/// over `path` and deleting a torn one. Returns `true` if a journal was
/// rolled forward. Called automatically by [`load_bundle`]; exposed for
/// start-up housekeeping that wants recovery without a full decode.
///
/// # Errors
/// [`CoreError::InvalidBundle`] if the roll-forward rename itself fails.
pub fn recover_journal(path: &Path) -> Result<bool> {
    let journal = journal_path(path);
    let Ok(bytes) = fs::read(&journal) else {
        return Ok(false); // no journal: the common, clean case
    };
    if unframe(&bytes).is_some() {
        // Complete journal: the save reached its durable point but the
        // final rename never landed. Finish the commit.
        let guard = COMMIT_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let renamed = fs::rename(&journal, path);
        drop(guard);
        match renamed {
            Ok(()) => {
                sync_parent_dir(path).map_err(io_err)?;
                Ok(true)
            }
            // A concurrent recover/save won the race; nothing to do.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(io_err(e)),
        }
    } else {
        // Torn journal: the crash hit mid-write, the old bundle at `path`
        // is still the durable truth. Discard the debris.
        fs::remove_file(&journal).ok();
        Ok(false)
    }
}

/// Load a bundle previously written by [`save_bundle`], first completing
/// any interrupted save via [`recover_journal`].
///
/// # Errors
/// [`CoreError::InvalidBundle`] on I/O failure, bad framing, checksum
/// mismatch, bundle decode failure, or a frame whose stamped version
/// disagrees with the decoded bundle's lineage.
pub fn load_bundle(path: &Path) -> Result<EdgeBundle> {
    let (payload, frame_version) = load_framed(path)?;
    let bundle = EdgeBundle::from_bytes(&payload)?;
    if frame_version != bundle.version() {
        return Err(CoreError::InvalidBundle(format!(
            "storage frame is stamped {frame_version} but the bundle inside is {}",
            bundle.version()
        )));
    }
    Ok(bundle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cloud::{CloudConfig, CloudInitializer};
    use magneto_sensors::{GeneratorConfig, SensorDataset};

    fn bundle() -> EdgeBundle {
        let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 1);
        let mut cfg = CloudConfig::fast_demo();
        cfg.trainer.epochs = 2;
        CloudInitializer::new(cfg).pretrain(&corpus).unwrap().0
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("magneto_storage_test_{name}_{}", std::process::id()))
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The pre-table bitwise implementation, kept as the test oracle.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let mask = (crc & 1).wrapping_neg();
                crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
            }
        }
        !crc
    }

    #[test]
    fn table_crc_matches_bitwise_reference() {
        let mut rng = magneto_tensor::SeededRng::new(99);
        for len in [0usize, 1, 2, 3, 7, 64, 255, 1000] {
            let data: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
            assert_eq!(crc32(&data), crc32_bitwise(&data), "len {len}");
        }
        // All 256 single-byte inputs.
        for b in 0u8..=255 {
            assert_eq!(crc32(&[b]), crc32_bitwise(&[b]), "byte {b}");
        }
    }

    #[test]
    fn load_bundle_never_panics_on_truncation_or_flips() {
        let b = bundle();
        let path = temp_path("fuzz");
        save_bundle(&b, &path, true).unwrap();
        let good = fs::read(&path).unwrap();

        // Truncation at every prefix: always a clean error.
        for cut in 0..good.len() {
            fs::write(&path, &good[..cut]).unwrap();
            assert!(load_bundle(&path).is_err(), "prefix {cut} loaded");
        }

        // Random byte flips: the CRC catches essentially all of them; a
        // flip must never panic either way.
        let mut rng = magneto_tensor::SeededRng::new(7);
        for _ in 0..100 {
            let mut bad = good.clone();
            let pos = (rng.next_u64() as usize) % bad.len();
            bad[pos] ^= 1 << (rng.next_u64() % 8);
            fs::write(&path, &bad).unwrap();
            let _ = load_bundle(&path);
        }
        fs::remove_file(&path).ok();
    }

    #[test]
    fn framed_payload_roundtrip_and_corruption() {
        let path = temp_path("framed");
        let payload = b"arbitrary session delta bytes \x00\x01\xff";
        let v1 = ModelVersion(1);
        save_framed(payload, v1, &path).unwrap();
        assert_eq!(load_framed(&path).unwrap(), (payload.to_vec(), v1));
        // Corruption is caught by the CRC.
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(load_framed(&path).is_err());
        // A torn journal is discarded and the old payload survives.
        save_framed(payload, v1, &path).unwrap();
        fs::write(journal_path(&path), b"MGSVhalf").unwrap();
        assert_eq!(load_framed(&path).unwrap().0, payload);
        // A complete journal rolls forward.
        fs::write(journal_path(&path), frame_payload(b"newer", v1)).unwrap();
        assert_eq!(load_framed(&path).unwrap().0, b"newer");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn versioned_frames_roundtrip_and_recover() {
        use crate::version::Lineage;
        let path = temp_path("versioned_frame");
        let payload = b"delta bytes pinned to a base version";
        save_framed(payload, ModelVersion(3), &path).unwrap();
        let (back, version) = load_framed(&path).unwrap();
        assert_eq!(back, payload);
        assert_eq!(version, ModelVersion(3));
        // The version survives journal recovery: plant a complete
        // journal and confirm roll-forward keeps the stamp.
        fs::write(journal_path(&path), frame_payload(b"newer", ModelVersion(4))).unwrap();
        let (rolled, rolled_version) = load_framed(&path).unwrap();
        assert_eq!(rolled, b"newer");
        assert_eq!(rolled_version, ModelVersion(4));
        // Versioned bundles round-trip the version through save/load.
        let b = bundle().with_lineage(Lineage::root(5));
        save_bundle(&b, &path, false).unwrap();
        let raw = fs::read(&path).unwrap();
        assert_eq!(&raw[..4], b"MGSV");
        assert_eq!(load_bundle(&path).unwrap().version(), ModelVersion(5));
        fs::remove_file(&path).ok();
    }

    /// The pre-versioning frame: `MGST`, CRC-32 and length around the
    /// bare payload.
    fn mgst_frame(payload: &[u8]) -> Vec<u8> {
        let mut framed = "MGST".as_bytes().to_vec();
        framed.extend_from_slice(&crc32(payload).to_le_bytes());
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(payload);
        framed
    }

    #[test]
    fn mgst_frame_and_v0_stamp_are_refused() {
        let path = temp_path("old_frames");
        let b = bundle();
        let refused = |path: &Path| {
            let err = load_bundle(path).unwrap_err();
            assert!(matches!(err, CoreError::InvalidBundle(_)), "{err}");
            assert!(matches!(load_framed(path), Err(CoreError::InvalidBundle(_))));
        };
        // A well-formed MGST frame around a valid bundle.
        fs::write(&path, mgst_frame(&b.to_bytes(false))).unwrap();
        refused(&path);
        // A CRC-valid frame stamped v0.
        fs::write(&path, frame_payload(&b.to_bytes(false), ModelVersion(0))).unwrap();
        refused(&path);
        // A CRC-valid frame whose body is too short to hold a stamp.
        let mut short = MAGIC.to_vec();
        short.extend_from_slice(&crc32(b"v1").to_le_bytes());
        short.extend_from_slice(&2u32.to_le_bytes());
        short.extend_from_slice(b"v1");
        fs::write(&path, short).unwrap();
        refused(&path);
        // Neither counts as a complete journal: recovery discards it.
        save_bundle(&b, &path, false).unwrap();
        fs::write(journal_path(&path), mgst_frame(b"old")).unwrap();
        assert!(!recover_journal(&path).unwrap());
        assert_eq!(load_bundle(&path).unwrap(), b);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn frame_version_mismatch_is_rejected() {
        use crate::version::Lineage;
        let b = bundle().with_lineage(Lineage::root(2));
        let path = temp_path("version_mismatch");
        // Stamp the frame with a different version than the lineage.
        save_framed(&b.to_bytes(false), ModelVersion(9), &path).unwrap();
        let err = load_bundle(&path).unwrap_err();
        assert!(err.to_string().contains("stamped"), "{err}");
        // The matching stamp loads.
        save_framed(&b.to_bytes(false), ModelVersion(2), &path).unwrap();
        assert_eq!(load_bundle(&path).unwrap().version(), ModelVersion(2));
        fs::remove_file(&path).ok();
    }

    #[test]
    fn save_load_roundtrip_both_precisions() {
        let b = bundle();
        for (quantized, name) in [(false, "f32"), (true, "i8")] {
            let path = temp_path(name);
            save_bundle(&b, &path, quantized).unwrap();
            let loaded = load_bundle(&path).unwrap();
            assert_eq!(loaded.registry, b.registry);
            assert_eq!(loaded.support_set, b.support_set);
            if !quantized {
                assert_eq!(loaded, b);
            }
            fs::remove_file(&path).ok();
        }
    }

    #[test]
    fn corruption_is_detected() {
        let b = bundle();
        let path = temp_path("corrupt");
        save_bundle(&b, &path, false).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        let err = load_bundle(&path).unwrap_err();
        assert!(err.to_string().contains("checksum"), "{err}");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_is_detected() {
        let b = bundle();
        let path = temp_path("trunc");
        save_bundle(&b, &path, false).unwrap();
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(load_bundle(&path).is_err());
        fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_file_rejected() {
        let path = temp_path("wrong");
        fs::write(&path, b"definitely not a bundle").unwrap();
        assert!(load_bundle(&path).is_err());
        fs::remove_file(&path).ok();
        assert!(load_bundle(Path::new("/nonexistent/magneto")).is_err());
    }

    #[test]
    fn scratch_files_keep_the_full_file_name() {
        // `model.v1` and `model.v2` must not share scratch paths — the old
        // `with_extension("tmp")` scheme collapsed both to `model.tmp`.
        let a = journal_path(Path::new("/data/model.v1"));
        let b = journal_path(Path::new("/data/model.v2"));
        assert_ne!(a, b);
        assert_eq!(a, Path::new("/data/model.v1.journal"));
        let t1 = unique_tmp_path(Path::new("/data/model.v1"));
        let t2 = unique_tmp_path(Path::new("/data/model.v1"));
        assert_ne!(t1, t2, "two saves of the same path share a temp file");
        assert!(t1.to_string_lossy().starts_with("/data/model.v1.tmp."));
    }

    #[test]
    fn save_leaves_no_journal_or_scratch_behind() {
        let b = bundle();
        let dir = temp_path("clean_dir");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.bundle");
        save_bundle(&b, &path, false).unwrap();
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .filter(|n| n != "model.bundle")
            .collect();
        assert!(leftovers.is_empty(), "debris after save: {leftovers:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_saves_to_sibling_paths_do_not_collide() {
        // The regression the unique suffix fixes: two bundles whose paths
        // differ only in extension, saved from two threads. Under the old
        // shared `model.tmp` scheme one save could publish the other's
        // half-written frame.
        let b = bundle();
        let dir = temp_path("sibling_dir");
        fs::create_dir_all(&dir).unwrap();
        let p1 = dir.join("model.v1");
        let p2 = dir.join("model.v2");
        std::thread::scope(|s| {
            let (b1, b2) = (&b, &b);
            let (q1, q2) = (&p1, &p2);
            let h1 = s.spawn(move || {
                for _ in 0..8 {
                    save_bundle(b1, q1, false).unwrap();
                }
            });
            let h2 = s.spawn(move || {
                for _ in 0..8 {
                    save_bundle(b2, q2, true).unwrap();
                }
            });
            h1.join().unwrap();
            h2.join().unwrap();
        });
        // Both destinations load, each at its own precision.
        assert_eq!(load_bundle(&p1).unwrap().registry, b.registry);
        assert_eq!(load_bundle(&p2).unwrap().registry, b.registry);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn complete_journal_rolls_forward_on_load() {
        let old = bundle();
        let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 2);
        let mut cfg = CloudConfig::fast_demo();
        cfg.trainer.epochs = 2;
        let new = CloudInitializer::new(cfg).pretrain(&corpus).unwrap().0;
        let path = temp_path("rollfwd");
        save_bundle(&old, &path, false).unwrap();
        // Simulate a crash after the journal became durable but before the
        // final rename: plant the complete new frame at the journal path.
        fs::write(
            journal_path(&path),
            frame_payload(&new.to_bytes(false), new.version()),
        )
        .unwrap();
        assert!(recover_journal(&path).unwrap());
        assert!(!journal_path(&path).exists());
        let loaded = load_bundle(&path).unwrap();
        assert_eq!(loaded.to_bytes(false), new.to_bytes(false));
        fs::remove_file(&path).ok();
    }

    /// The acceptance property: kill the save at **every byte offset** of
    /// the journal write; loading must always yield the complete old or
    /// the complete new bundle — never an error, never a hybrid.
    #[test]
    fn crash_at_every_journal_byte_yields_old_or_new() {
        let old = bundle();
        let corpus = SensorDataset::generate(&GeneratorConfig::tiny(), 3);
        let mut cfg = CloudConfig::fast_demo();
        cfg.trainer.epochs = 2;
        let new = CloudInitializer::new(cfg).pretrain(&corpus).unwrap().0;
        let old_bytes = old.to_bytes(false);
        let new_bytes = new.to_bytes(false);
        assert_ne!(old_bytes, new_bytes);

        let path = temp_path("kill_every_byte");
        save_bundle(&old, &path, false).unwrap();
        let new_frame = frame_payload(&new_bytes, new.version());
        let journal = journal_path(&path);

        let old_frame = frame_payload(&old_bytes, old.version());
        for cut in 0..=new_frame.len() {
            // The torn journal models every crash point: before `cut`
            // bytes of the new frame reached disk the rename into the
            // journal name cannot have happened (the temp write is
            // fsync'd first), and after the full frame is durable the
            // journal is complete. Recovery must never fail.
            fs::write(&journal, &new_frame[..cut]).unwrap();
            let rolled = recover_journal(&path)
                .unwrap_or_else(|e| panic!("recovery failed at cut {cut}: {e}"));
            // Only the complete frame rolls forward; every torn prefix is
            // discarded. Either way the journal is consumed.
            assert_eq!(rolled, cut == new_frame.len(), "cut {cut}");
            assert!(!journal.exists(), "cut {cut}: journal left behind");
            // The destination file is always exactly the old or the new
            // frame — never a hybrid (byte compare keeps the every-offset
            // sweep cheap; decode determinism is covered below and by the
            // roundtrip tests).
            let on_disk = fs::read(&path).unwrap();
            assert!(
                on_disk == old_frame || on_disk == new_frame,
                "cut {cut}: destination is neither old nor new frame"
            );
            // Full decode spot-checks: frame boundaries plus a stride.
            if cut <= 16 || cut % 4096 == 0 || cut + 1 >= new_frame.len() {
                let loaded = load_bundle(&path)
                    .unwrap_or_else(|e| panic!("load failed at cut {cut}: {e}"))
                    .to_bytes(false);
                assert!(
                    loaded == old_bytes || loaded == new_bytes,
                    "cut {cut}: loaded neither old nor new"
                );
            }
        }
        // The final iteration had the complete frame: it must have rolled
        // forward to the new bundle.
        assert_eq!(load_bundle(&path).unwrap().to_bytes(false), new_bytes);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_journal_is_discarded_and_old_bundle_survives() {
        let b = bundle();
        let path = temp_path("torn");
        save_bundle(&b, &path, false).unwrap();
        fs::write(journal_path(&path), b"MGSV\x01\x02half a frame").unwrap();
        assert!(!recover_journal(&path).unwrap());
        assert!(!journal_path(&path).exists());
        assert_eq!(load_bundle(&path).unwrap().registry, b.registry);
        fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_only_no_destination_recovers_the_new_bundle() {
        // Crash between the two renames on the *first ever* save: there is
        // no old file at all, just a complete journal.
        let b = bundle();
        let path = temp_path("journal_only");
        fs::remove_file(&path).ok();
        fs::write(journal_path(&path), frame_payload(&b.to_bytes(false), b.version())).unwrap();
        let loaded = load_bundle(&path).unwrap();
        assert_eq!(loaded.to_bytes(false), b.to_bytes(false));
        fs::remove_file(&path).ok();
    }
}
