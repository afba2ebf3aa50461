//! Crash-safe persistence primitives: atomic whole-file writes and the
//! one checksum every integrity check in the workspace shares.
//!
//! Every result-bearing artifact in the workspace (report tables, JSON
//! exports, trace files, result-store entries) goes
//! through [`atomic_write`]: write to a sibling `*.tmp`, `fsync`,
//! `rename` over the destination, then `fsync` the directory. A reader
//! therefore sees either the old file or the new one — never a torn
//! half-write — and a `SIGKILL` mid-campaign cannot leave a
//! plausible-looking but truncated report behind. Lint rule D006 flags
//! bare `fs::write`/`File::create` in result-bearing crates to keep new
//! call sites on this path.
//!
//! Durable *results* live in one place: the content-addressed result
//! store in `respin-serve`, installed behind the
//! [`RunCache`](crate::experiments::common::RunCache) by both the
//! one-shot CLI (`--checkpoint-dir`) and the daemon (`serve --store`).
//! Its entry files are its only durable state.

use std::fs::{self, File};
use std::io::{self, Write};
use std::path::Path;

/// FNV-1a 64-bit hash: the result-store entry checksum and file-name
/// hash, and the basis of the stable trace run ids.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Writes `bytes` to `path` atomically: tmp file + `fsync` + `rename`,
/// then a best-effort `fsync` of the parent directory so the rename
/// itself is durable. Readers observe the old contents or the new,
/// never a prefix.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::other(format!("{} has no file name", path.display())))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        // The one sanctioned direct creation: this helper IS the atomic
        // discipline every other call site is routed through.
        // respin-lint: allow(D006, reason="atomic_write implementation itself; tmp+fsync+rename happens right here")
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            // Directory fsync is advisory on some filesystems; failure to
            // sync the rename record is not failure to write the data.
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_write_replaces_contents() {
        let dir = std::env::temp_dir().join("respin-persist-aw-test");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.txt");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        // No tmp residue.
        assert!(!dir.join("out.txt.tmp").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_needs_a_file_name() {
        let err = atomic_write(Path::new(".."), b"x").expect_err("no file name");
        assert!(err.to_string().contains("has no file name"), "{err}");
    }

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        // Published FNV-1a 64-bit test vectors; store file names, entry
        // checksums and trace run ids all depend on these exact values.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn atomic_write_into_a_missing_directory_fails_cleanly() {
        let dir = std::env::temp_dir().join("respin-persist-missing-dir-test");
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("out.txt");
        assert!(atomic_write(&path, b"x").is_err());
        assert!(
            !dir.exists(),
            "a failed write must not create the directory"
        );
    }
}
