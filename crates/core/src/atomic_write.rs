//! Crash-safe file publication: write a temp sibling, then rename it into
//! place.

use std::fs;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Write `contents` to `path` atomically, creating missing parent
/// directories.
///
/// The bytes go in full to a temp sibling unique to this call (pid plus a
/// process-wide sequence number, so concurrent writers never interleave
/// into one file), and a rename moves it into place. Readers see either the
/// old complete file or the new one, never a torn write; a crash mid-write
/// leaves at worst a stray `.tmp.*` file. Last rename wins.
///
/// Errors name the step and the file that failed.
pub fn write_atomic(path: &Path, contents: impl AsRef<[u8]>) -> io::Result<()> {
    static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
    let context =
        |what: String| move |e: io::Error| io::Error::new(e.kind(), format!("{what}: {e}"));
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            fs::create_dir_all(parent)
                .map_err(context(format!("creating {}", parent.display())))?;
        }
    }
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    fs::write(&tmp, contents).map_err(context(format!("writing {}", tmp.display())))?;
    fs::rename(&tmp, path).map_err(context(format!("renaming {} into place", tmp.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_create_parents_replace_and_leave_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("dquag-atomic-write-{}", std::process::id()));
        let path = dir.join("nested").join("state.json");
        write_atomic(&path, "first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), "second");
        let leftovers: Vec<_> = fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|entry| entry.unwrap().file_name())
            .filter(|name| name != "state.json")
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");

        // A failed step names itself and the file.
        let err = write_atomic(&path.join("under-a-file"), "x").unwrap_err();
        assert!(err.to_string().contains("creating"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }
}
