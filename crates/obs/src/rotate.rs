//! [`RotatingFile`]: a size-rotated file writer for streaming sinks.
//!
//! A long-running service streaming NDJSON spans to disk needs rotation or
//! the file grows without bound. External rotation (logrotate et al.) can
//! truncate mid-line; this writer rotates itself, and only at *flush
//! boundaries* — [`crate::StreamSink`] flushes after whole records, so
//! every rotated file is complete, parseable NDJSON cut at a line
//! boundary.
//!
//! Rotation shifts `path` → `path.1` → … → `path.<keep>` (the oldest is
//! dropped) and reopens a fresh `path`, like classic logrotate numbering.
//! The rotation count is exposed so deployments can alert on runaway
//! rotation (a symptom of trace spam).

use std::fs::File;
use std::io::{self, Write};
use std::path::PathBuf;

/// A file writer that rotates by size at flush boundaries.
pub struct RotatingFile {
    path: PathBuf,
    file: File,
    /// Bytes written to the current incarnation of `path`.
    bytes: u64,
    max_bytes: u64,
    keep: usize,
    rotations: u64,
}

impl RotatingFile {
    /// Create (truncate) `path`, rotating once at least `max_bytes` have
    /// been written and a flush lands. Keeps `keep` rotated files
    /// (`path.1` newest … `path.<keep>` oldest; min 1).
    ///
    /// # Errors
    ///
    /// Propagates file creation failures.
    pub fn create(
        path: impl Into<PathBuf>,
        max_bytes: u64,
        keep: usize,
    ) -> io::Result<RotatingFile> {
        let path = path.into();
        let file = File::create(&path)?;
        Ok(RotatingFile {
            path,
            file,
            bytes: 0,
            max_bytes: max_bytes.max(1),
            keep: keep.max(1),
            rotations: 0,
        })
    }

    /// Completed rotations so far.
    pub fn rotations(&self) -> u64 {
        self.rotations
    }

    fn numbered(&self, i: usize) -> PathBuf {
        let mut s = self.path.clone().into_os_string();
        s.push(format!(".{i}"));
        PathBuf::from(s)
    }

    fn rotate(&mut self) -> io::Result<()> {
        // Shift the retained generations up; the oldest falls off the end.
        // Missing generations are fine (early in the file's life).
        for i in (1..self.keep).rev() {
            let _ = std::fs::rename(self.numbered(i), self.numbered(i + 1));
        }
        std::fs::rename(&self.path, self.numbered(1))?;
        self.file = File::create(&self.path)?;
        self.bytes = 0;
        self.rotations += 1;
        Ok(())
    }
}

impl Write for RotatingFile {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let n = self.file.write(data)?;
        self.bytes += n as u64;
        Ok(n)
    }

    /// Flush, then rotate if the size threshold was crossed. Rotation
    /// happens *only* here — callers that flush at record boundaries (as
    /// [`crate::StreamSink`] does) therefore never split a record across
    /// files.
    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()?;
        if self.bytes >= self.max_bytes {
            self.rotate()?;
        }
        Ok(())
    }
}

impl crate::StreamSink<RotatingFile> {
    /// Completed rotations of the underlying rotating file.
    pub fn rotations(&self) -> u64 {
        self.with_writer(RotatingFile::rotations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::TraceSink;
    use crate::span::SpanRecord;
    use crate::StreamSink;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("tssa-rotate-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn rotates_only_at_flush_and_keeps_generations() {
        let path = tmp("gen.log");
        let mut f = RotatingFile::create(&path, 6, 2).unwrap();
        // Over the threshold, but no flush yet: no rotation.
        f.write_all(b"first-file-0123456789\n").unwrap();
        assert_eq!(f.rotations(), 0);
        f.flush().unwrap();
        assert_eq!(f.rotations(), 1);
        f.write_all(b"second\n").unwrap();
        f.flush().unwrap();
        f.write_all(b"third\n").unwrap();
        f.flush().unwrap();
        assert_eq!(f.rotations(), 3);
        // path is fresh, .1 and .2 hold the two newest retired files; the
        // first file fell off the end (keep = 2).
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "");
        let gen1 = std::fs::read_to_string(f.numbered(1)).unwrap();
        let gen2 = std::fs::read_to_string(f.numbered(2)).unwrap();
        assert_eq!(gen1, "third\n");
        assert_eq!(gen2, "second\n");
        assert!(!f.numbered(3).exists());
    }

    #[test]
    fn under_threshold_flushes_do_not_rotate() {
        let path = tmp("small.log");
        let mut f = RotatingFile::create(&path, 1024, 1).unwrap();
        for _ in 0..10 {
            f.write_all(b"line\n").unwrap();
            f.flush().unwrap();
        }
        assert_eq!(f.rotations(), 0);
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 10);
    }

    #[test]
    fn stream_sink_rotation_cuts_at_line_boundaries() {
        let path = tmp("spans.ndjson");
        let file = RotatingFile::create(&path, 512, 4).unwrap();
        let sink = StreamSink::with_flush_every(file, 4);
        for id in 1..=200u64 {
            sink.record(SpanRecord {
                id,
                parent: None,
                root: id,
                name: format!("span-{id}"),
                category: "test",
                start_ns: id,
                dur_ns: 1,
                counters: Vec::new(),
            });
        }
        sink.flush().unwrap();
        assert!(sink.rotations() > 0, "200 spans must overflow 512 bytes");
        assert_eq!(sink.dropped(), 0);
        // Every generation on disk — current and rotated — is whole-line
        // NDJSON: rotation never split a record.
        let mut total_lines = 0u64;
        let rotations = sink.rotations();
        let file = sink.into_inner();
        let mut paths = vec![path.clone()];
        (1..=4).for_each(|i| paths.push(file.numbered(i)));
        for p in paths {
            let Ok(text) = std::fs::read_to_string(&p) else {
                continue;
            };
            if !text.is_empty() {
                assert!(text.ends_with('\n'), "{}: cut mid-line", p.display());
            }
            for line in text.lines() {
                crate::json::parse(line).expect("rotated NDJSON line parses");
                total_lines += 1;
            }
        }
        // keep=4 retains every span here only if few rotations happened;
        // with more, older spans are dropped with the oldest generation.
        assert!(total_lines > 0);
        assert!(
            total_lines <= 200 && (rotations > 4 || total_lines == 200),
            "{total_lines} lines across generations after {rotations} rotations"
        );
    }
}
