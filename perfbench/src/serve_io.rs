//! Plumbing between the benchmark and `serve_lines`: a reader fed request
//! lines through a channel (so the load generator never blocks on the
//! service), a writer that timestamps every response line, the response
//! normalisation the output checks compare under, and a cold serial
//! reference run.

use std::io::{self, BufRead, Read, Write};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Instant;

use march_codex_cli::{serve_lines, ServeMetrics, ServeOptions};
use sram_sim::{ExecPolicy, SharedEngine};

/// A [`BufRead`] over request lines arriving on a channel; end of input
/// once every sender is dropped.
pub struct ChannelReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl ChannelReader {
    pub fn new(rx: Receiver<Vec<u8>>) -> ChannelReader {
        ChannelReader {
            rx,
            buf: Vec::new(),
            pos: 0,
        }
    }
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        let available = self.fill_buf()?;
        let n = available.len().min(out.len());
        out[..n].copy_from_slice(&available[..n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for ChannelReader {
    fn fill_buf(&mut self) -> io::Result<&[u8]> {
        if self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(&[]),
            }
        }
        Ok(&self.buf[self.pos..])
    }

    fn consume(&mut self, amount: usize) {
        self.pos = (self.pos + amount).min(self.buf.len());
    }
}

/// A [`Write`] sink that keeps every response line and the instant its
/// newline was written. Lines are stored one by one, so the sink never
/// stalls the service on a large buffer reallocation.
#[derive(Default)]
pub struct StampedWriter {
    pub lines: Vec<String>,
    pub stamps: Vec<Instant>,
    partial: Vec<u8>,
    /// Lines written so far, readable from other threads.
    pub written: Arc<AtomicUsize>,
}

impl StampedWriter {
    pub fn with_capacity(lines: usize) -> StampedWriter {
        StampedWriter {
            lines: Vec::with_capacity(lines),
            stamps: Vec::with_capacity(lines),
            ..StampedWriter::default()
        }
    }
}

impl Write for StampedWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let now = Instant::now();
        for piece in buf.split_inclusive(|&b| b == b'\n') {
            match piece.strip_suffix(b"\n") {
                Some(rest) => {
                    self.partial.extend_from_slice(rest);
                    let line = String::from_utf8_lossy(&self.partial).into_owned();
                    self.partial.clear();
                    self.lines.push(line);
                    self.stamps.push(now);
                    self.written.fetch_add(1, Ordering::SeqCst);
                }
                None => self.partial.extend_from_slice(piece),
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// A response line with its `seq` dropped and any `elapsed_s` value zeroed
/// — the two fields that legitimately differ between runs.
pub fn normalise(line: &str) -> String {
    let mut out = line.to_string();
    if let Some(rest) = out.strip_prefix("{\"seq\": ") {
        let digits = rest.bytes().take_while(u8::is_ascii_digit).count();
        out = format!("{{{}", rest[digits..].trim_start_matches(", "));
    }
    let key = "\"elapsed_s\": ";
    let mut from = 0;
    while let Some(found) = out[from..].find(key) {
        let start = from + found + key.len();
        let end = out[start..]
            .find([',', '}'])
            .map_or(out.len(), |offset| start + offset);
        out.replace_range(start..end, "0");
        from = start;
    }
    out
}

/// Answers `requests` serially on a fresh engine (one thread, one job in
/// flight) and returns the normalised response lines: the reference every
/// measured response must match byte for byte.
pub fn cold_reference(requests: &[String]) -> Result<Vec<String>, String> {
    let engine = SharedEngine::new(ExecPolicy::default());
    let options = ServeOptions {
        max_in_flight: 1,
        ..ServeOptions::default()
    };
    let input = requests.join("\n");
    let mut output = Vec::new();
    serve_lines(
        input.as_bytes(),
        &mut output,
        &engine,
        &Arc::new(ServeMetrics::default()),
        &options,
    )
    .map_err(|error| format!("reference serve failed: {error}"))?;
    let lines: Vec<String> = String::from_utf8_lossy(&output)
        .lines()
        .map(normalise)
        .collect();
    if lines.len() != requests.len() {
        return Err(format!(
            "reference answered {} of {} requests",
            lines.len(),
            requests.len()
        ));
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalise_drops_seq_and_zeroes_elapsed() {
        let line =
            r#"{"seq": 12, "ok": true, "op": "generate", "report": {"elapsed_s": 0.0123, "x": 1}}"#;
        assert_eq!(
            normalise(line),
            r#"{"ok": true, "op": "generate", "report": {"elapsed_s": 0, "x": 1}}"#
        );
    }
}
