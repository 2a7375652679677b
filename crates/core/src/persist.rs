//! The blessed atomic-write helper: every durable write in the workspace
//! goes through [`write_atomic`] (the root `clippy.toml` lists raw
//! `std::fs::write`/`File::create` as disallowed methods everywhere else).
//!
//! The commit protocol is write-to-sibling-temp-then-rename: a crash or
//! full disk mid-write leaves any previous file at `path` intact — the
//! one moment a durability subsystem must not destroy its own prior
//! state is while persisting the next one. The temp name embeds the
//! process id so concurrent writers of *different* checkpoints never
//! collide on the temp file (last rename still wins the final path, as
//! with any shared file).

use std::io;
use std::path::{Path, PathBuf};

/// Atomically replaces `path` with `bytes`.
///
/// Writes a sibling temp file (`<path>.tmp-<pid>`) and renames it over
/// `path`. On any error the temp file is removed and `path` is left as
/// it was.
///
/// # Errors
///
/// Propagates the underlying I/O error from the write or the rename.
#[expect(
    clippy::disallowed_methods,
    reason = "this is the atomic-write helper: the raw write lands on the temp sibling, and the rename is the commit"
)]
pub fn write_atomic(path: impl AsRef<Path>, bytes: impl AsRef<[u8]>) -> io::Result<()> {
    let path = path.as_ref();
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp-{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, bytes.as_ref())?;
    std::fs::rename(&tmp, path).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rds-persist-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn writes_and_replaces() {
        let dir = tmp_dir("replace");
        let path = dir.join("state.json");
        write_atomic(&path, b"one").expect("first write");
        assert_eq!(std::fs::read(&path).expect("read back"), b"one");
        write_atomic(&path, b"two").expect("second write");
        assert_eq!(std::fs::read(&path).expect("read back"), b"two");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leaves_no_temp_file_behind() {
        let dir = tmp_dir("clean");
        let path = dir.join("state.json");
        write_atomic(&path, b"payload").expect("write");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("list dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["state.json".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_commit_preserves_previous_file() {
        let dir = tmp_dir("preserve");
        let path = dir.join("state.json");
        write_atomic(&path, b"good").expect("write");
        // a directory at the destination makes the rename fail on Linux
        let blocked = dir.join("blocked");
        std::fs::create_dir_all(&blocked).expect("create blocker");
        assert!(write_atomic(&blocked, b"clobber").is_err());
        assert_eq!(std::fs::read(&path).expect("read back"), b"good");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
