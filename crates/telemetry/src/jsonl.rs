//! [`JsonlLog`]: the append-only JSONL log behind every event stream and
//! the service's access log.
//!
//! A log without a file keeps its bytes in one `String` (tests, `repro
//! bench`, `repro serve` without `--state`). Otherwise it appends each
//! chunk to its file as the chunk arrives, so the process holds none of
//! the stream. Writers append whole lines; readers take only the log's
//! length (and path) under its lock and read a file's bytes outside it,
//! so a follower never stalls the writer.
//!
//! A checked log runs [`json::validate_lines`] over each chunk before it
//! is stored. The first failed check or write ends the log: that chunk
//! and every later one are dropped, a half-written chunk is truncated
//! away, and [`JsonlLog::failure`] reports it. Nothing is fsynced; the
//! journal is the run's one durable artifact.

use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use crate::json;

/// An append-only JSONL log in memory or in a file. See the module docs.
pub(crate) struct JsonlLog {
    state: Mutex<LogState>,
    /// Validate each chunk before it is stored.
    checked: bool,
}

struct LogState {
    store: Store,
    /// Bytes stored so far, always a whole number of chunks.
    len: usize,
    /// The first failed check or write; the log stores nothing after it.
    failure: Option<std::io::Error>,
}

enum Store {
    Memory(String),
    /// `file` is open while the log appends; it is `None` before the
    /// first chunk and after [`JsonlLog::close`].
    File {
        path: PathBuf,
        file: Option<File>,
    },
}

impl Store {
    /// The name a failure message gives the log: its file's name.
    fn name(&self) -> String {
        match self {
            Store::Memory(_) => "in-memory log".to_string(),
            Store::File { path, .. } => path
                .file_name()
                .unwrap_or(path.as_os_str())
                .to_string_lossy()
                .into_owned(),
        }
    }
}

impl JsonlLog {
    /// A log that keeps its bytes in memory.
    pub(crate) fn in_memory() -> Self {
        Self::with_store(Store::Memory(String::new()), false)
    }

    /// A log in the file at `path`. The file is created, or truncated,
    /// by [`open`](Self::open) or by the first chunk, so a log that never
    /// stores a byte and is never opened leaves no file.
    pub(crate) fn file(path: PathBuf, checked: bool) -> Self {
        Self::with_store(Store::File { path, file: None }, checked)
    }

    fn with_store(store: Store, checked: bool) -> Self {
        JsonlLog {
            state: Mutex::new(LogState {
                store,
                len: 0,
                failure: None,
            }),
            checked,
        }
    }

    fn lock(&self) -> MutexGuard<'_, LogState> {
        self.state.lock().expect("JSONL log poisoned")
    }

    /// Creates (or truncates) a file log's file now, when it is empty.
    /// A failure is also the log's [`failure`](Self::failure).
    pub(crate) fn open(&self) -> std::io::Result<()> {
        let mut state = self.lock();
        let LogState {
            store,
            len,
            failure,
        } = &mut *state;
        let Store::File { path, file } = store else {
            return Ok(());
        };
        if file.is_some() {
            return Ok(());
        }
        match open_at(path, *len) {
            Ok(opened) => {
                *file = Some(opened);
                Ok(())
            }
            Err(e) => {
                let copy = std::io::Error::new(e.kind(), e.to_string());
                failure.get_or_insert(e);
                Err(copy)
            }
        }
    }

    /// Appends `chunk`, a run of whole lines, unless the log has failed.
    pub(crate) fn append(&self, chunk: &str) {
        if chunk.is_empty() {
            return;
        }
        let checked = if self.checked {
            json::validate_lines(chunk)
        } else {
            Ok(())
        };
        let mut state = self.lock();
        let LogState {
            store,
            len,
            failure,
        } = &mut *state;
        if failure.is_some() {
            return;
        }
        let stored = match (checked, store) {
            (Err(e), store) => Err(std::io::Error::other(format!(
                "{} self-check failed in the chunk at byte {len}: {e}",
                store.name()
            ))),
            (Ok(()), Store::Memory(text)) => {
                text.push_str(chunk);
                Ok(())
            }
            (Ok(()), Store::File { path, file }) => write_chunk(path, file, *len, chunk),
        };
        match stored {
            Ok(()) => *len += chunk.len(),
            Err(e) => *failure = Some(e),
        }
    }

    /// The log's bytes from `offset`, at most `max` of them (cut back to
    /// a whole character). Empty when `offset` is at or past the end or
    /// inside a character, as [`str::get`] would have it, and when the
    /// file cannot be read.
    pub(crate) fn read(&self, offset: usize, max: usize) -> String {
        loop {
            let (end, path) = {
                let state = self.lock();
                let end = state.len.min(offset.saturating_add(max));
                match &state.store {
                    Store::Memory(text) => {
                        let end = (0..=end)
                            .rev()
                            .find(|&end| text.is_char_boundary(end))
                            .unwrap_or(0);
                        return text.get(offset..end).unwrap_or_default().to_string();
                    }
                    Store::File { path, .. } => (end, path.clone()),
                }
            };
            if offset >= end {
                return String::new();
            }
            let bytes = read_range(&path, offset, end - offset);
            // A closed log may be moved (see `relocate`) between taking
            // its path and opening it; read again from its new path.
            let moved = match &self.lock().store {
                Store::File { path: now, .. } => *now != path,
                Store::Memory(_) => false,
            };
            if !moved {
                return bytes.map_or_else(|_| String::new(), utf8_prefix);
            }
        }
    }

    /// The log's first failed check or write, if any.
    pub(crate) fn failure(&self) -> Option<std::io::Error> {
        self.lock()
            .failure
            .as_ref()
            .map(|e| std::io::Error::new(e.kind(), e.to_string()))
    }

    /// Closes a file log's file. A later chunk opens it again and appends.
    pub(crate) fn close(&self) {
        if let Store::File { file, .. } = &mut self.lock().store {
            *file = None;
        }
    }

    /// Moves a closed file log's file to `to`, where it keeps being
    /// read, so that another log can start a new file at the old path.
    pub(crate) fn relocate(&self, to: &Path) -> std::io::Result<()> {
        let mut state = self.lock();
        let stored = state.len > 0;
        let Store::File { path, file } = &mut state.store else {
            return Ok(());
        };
        *file = None;
        if stored {
            std::fs::rename(&*path, to)?;
        }
        *path = to.to_path_buf();
        Ok(())
    }
}

/// Opens a log's file for its next chunk: truncated when the log holds
/// nothing yet, appended to otherwise.
fn open_at(path: &Path, len: usize) -> std::io::Result<File> {
    let mut options = OpenOptions::new();
    if len == 0 {
        options.write(true).create(true).truncate(true);
    } else {
        options.append(true);
    }
    options.open(path)
}

/// Writes one chunk at the end of a file log, opening the file first if
/// it is closed. A failed write truncates the file back to `len`, the
/// end of its last whole chunk.
fn write_chunk(
    path: &Path,
    file: &mut Option<File>,
    len: usize,
    chunk: &str,
) -> std::io::Result<()> {
    let handle = match file {
        Some(handle) => handle,
        None => file.insert(open_at(path, len)?),
    };
    handle.write_all(chunk.as_bytes()).inspect_err(|_| {
        let _ = handle.set_len(len as u64);
    })
}

fn read_range(path: &Path, offset: usize, count: usize) -> std::io::Result<Vec<u8>> {
    let mut file = File::open(path)?;
    file.seek(SeekFrom::Start(offset as u64))?;
    let mut bytes = Vec::with_capacity(count);
    file.take(count as u64).read_to_end(&mut bytes)?;
    Ok(bytes)
}

/// `bytes` as text, cut back to the last whole character; empty when
/// they start inside a character.
fn utf8_prefix(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).unwrap_or_else(|e| {
        let error = e.utf8_error();
        if error.error_len().is_some() {
            return String::new();
        }
        let mut bytes = e.into_bytes();
        bytes.truncate(error.valid_up_to());
        String::from_utf8(bytes).expect("valid up to the cut")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "serscale-jsonl-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("case dir");
        dir
    }

    const LINES: &str = "{\"event\":\"a\"}\n{\"event\":\"b\"}\n";

    #[test]
    fn memory_and_file_logs_read_the_same_windows() {
        let dir = case_dir("windows");
        let memory = JsonlLog::in_memory();
        let file = JsonlLog::file(dir.join("log.jsonl"), true);
        for log in [&memory, &file] {
            log.append(LINES);
            log.append("{\"event\":\"é\"}\n");
        }
        let whole = std::fs::read_to_string(dir.join("log.jsonl")).expect("file");
        assert_eq!(memory.read(0, usize::MAX), whole);
        let accent = whole.find('é').expect("accent");
        for offset in [0, 5, LINES.len(), accent + 1, whole.len(), whole.len() + 9] {
            for max in [1, 7, accent + 1 - offset.min(accent), usize::MAX] {
                let want = whole
                    .get(offset..)
                    .map(|rest| {
                        let mut cut = max.min(rest.len());
                        while !rest.is_char_boundary(cut) {
                            cut -= 1;
                        }
                        rest[..cut].to_string()
                    })
                    .unwrap_or_default();
                assert_eq!(memory.read(offset, max), want, "memory {offset}+{max}");
                assert_eq!(file.read(offset, max), want, "file {offset}+{max}");
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_malformed_chunk_never_reaches_the_file() {
        let dir = case_dir("malformed");
        let path = dir.join("events.jsonl");
        let log = JsonlLog::file(path.clone(), true);
        log.append(LINES);
        log.append("{\"event\":\"c\"}\n{\"event\":\n");
        log.append("{\"event\":\"d\"}\n");
        assert_eq!(std::fs::read_to_string(&path).expect("file"), LINES);
        assert_eq!(log.read(0, usize::MAX), LINES);
        let failure = log.failure().expect("the check failed").to_string();
        assert!(
            failure.starts_with("events.jsonl self-check failed in the chunk at byte 28: line 2"),
            "{failure}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_failed_write_ends_the_log() {
        let full = Path::new("/dev/full");
        if !full.exists() {
            return;
        }
        let log = JsonlLog::file(full.to_path_buf(), false);
        log.append(LINES);
        log.append(LINES);
        assert_eq!(log.read(0, usize::MAX), "");
        let failure = log.failure().expect("the write failed");
        assert_eq!(failure.kind(), std::io::ErrorKind::StorageFull, "{failure}");
    }

    #[test]
    fn an_unused_file_log_leaves_no_file_and_open_truncates() {
        let dir = case_dir("lazy");
        let path = dir.join("events.jsonl");
        let lazy = JsonlLog::file(path.clone(), false);
        assert_eq!(lazy.read(0, usize::MAX), "");
        lazy.close();
        assert!(!path.exists());
        std::fs::write(&path, "stale\n").expect("stale file");
        let log = JsonlLog::file(path.clone(), false);
        log.open().expect("open");
        assert_eq!(std::fs::read_to_string(&path).expect("file"), "");
        log.append(LINES);
        log.close();
        log.append(LINES);
        assert_eq!(
            std::fs::read_to_string(&path).expect("file"),
            LINES.repeat(2)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_relocated_log_keeps_its_bytes_while_a_new_one_takes_its_path() {
        let dir = case_dir("relocate");
        let path = dir.join("events.jsonl");
        let old = JsonlLog::file(path.clone(), false);
        old.append(LINES);
        old.close();
        old.relocate(&dir.join("events-1.jsonl")).expect("relocate");
        let new = JsonlLog::file(path.clone(), false);
        new.append("{\"event\":\"new\"}\n");
        assert_eq!(old.read(0, usize::MAX), LINES);
        assert_eq!(new.read(0, usize::MAX), "{\"event\":\"new\"}\n");
        let empty = JsonlLog::file(dir.join("never.jsonl"), false);
        empty
            .relocate(&dir.join("moved.jsonl"))
            .expect("nothing to move");
        assert_eq!(empty.read(0, usize::MAX), "");
        std::fs::remove_dir_all(&dir).ok();
    }
}
