//! The server under test as a child process: launch, readiness, the
//! process counters read from `/proc`, and shutdown.

use crate::wire::{Conn, ConnStats};
use jim_server::Op;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Linux reports process times in USER_HZ ticks, which is 100.
const TICKS_PER_SECOND: f64 = 100.0;

pub struct Server {
    child: Child,
    pub addr: String,
    /// Launch until the first answered request, seconds.
    pub setup_s: f64,
}

/// Start `bin` with `flags` on an ephemeral port, wait until it answers
/// a `ListSessions`, and hand back that first connection. Stderr goes to
/// `log`, where the listening address is read from.
pub fn launch(
    bin: &Path,
    flags: &[String],
    log: &Path,
    stats: &mut ConnStats,
) -> Result<(Server, Conn), String> {
    let stderr = File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let start = Instant::now();
    let mut child = Command::new(bin)
        .args(["--host", "127.0.0.1", "--port", "0"])
        .args(flags)
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(stderr)
        .spawn()
        .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
    let addr = loop {
        let text = std::fs::read_to_string(log).unwrap_or_default();
        // The address is complete once the rest of the line follows it.
        if let Some((addr, _)) = text
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_once(" via "))
        {
            break addr.to_string();
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("jim-serve exited at start-up ({status}): {text}"));
        }
        if start.elapsed() > Duration::from_secs(30) {
            let _ = child.kill();
            let _ = child.wait();
            return Err("jim-serve did not report its address within 30 s".into());
        }
        std::thread::sleep(Duration::from_micros(200));
    };
    let first = Conn::connect(&addr).and_then(|mut conn| {
        conn.observe(stats, Op::ListSessions, r#"{"op":"ListSessions"}"#)?;
        Ok(conn)
    });
    let setup_s = start.elapsed().as_secs_f64();
    let mut server = Server {
        child,
        addr,
        setup_s,
    };
    match first {
        Ok(conn) => Ok((server, conn)),
        Err(e) => {
            server.stop();
            Err(e)
        }
    }
}

impl Server {
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Kill the server and wait until it has exited.
    pub fn stop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop();
    }
}

/// User + system CPU of a process, microseconds.
pub fn cpu_us(pid: Option<u32>) -> Result<f64, String> {
    let path = match pid {
        Some(pid) => PathBuf::from(format!("/proc/{pid}/stat")),
        None => PathBuf::from("/proc/self/stat"),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    // Fields after the parenthesized command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = text.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => Ok((u + s) / TICKS_PER_SECOND * 1e6),
        _ => Err(format!("{}: unexpected format", path.display())),
    }
}

/// Peak resident set (`VmHWM`) of a process, MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM"))
}
