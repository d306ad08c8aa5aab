//! `squid-serve` child processes: launch, wait for `listening on`, kill.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// How long a server may take to announce its address.
const READY_DEADLINE: Duration = Duration::from_secs(60);

/// A running server. Dropping it SIGKILLs and reaps the process.
pub struct Node {
    child: Child,
    pub addr: String,
    pub repl: Option<String>,
    /// Process start to the `listening on` line.
    pub setup: Duration,
    /// Kept open so the server never writes to a closed pipe.
    lines: mpsc::Receiver<String>,
    reader: Option<std::thread::JoinHandle<()>>,
}

impl Node {
    /// Start `bin args...`, logging its stderr to `log`, and wait until it
    /// prints its serving (and, with `--replicate-to`, replication)
    /// address.
    pub fn launch(bin: &Path, args: &[String], log: &Path) -> Result<Node, String> {
        let stderr = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(log)
            .map_err(|e| format!("open {}: {e}", log.display()))?;
        let t0 = Instant::now();
        let mut child = Command::new(bin)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stdout: ChildStdout = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel();
        // The reader ends at EOF, which the kill in `Drop` guarantees.
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        let want_repl = args.iter().any(|a| a == "--replicate-to");
        let mut node = Node {
            child,
            addr: String::new(),
            repl: None,
            setup: Duration::ZERO,
            lines: rx,
            reader: Some(reader),
        };
        loop {
            let line = node.lines.recv_timeout(READY_DEADLINE).map_err(|_| {
                format!(
                    "server {args:?} exited or hung before listening; see {}",
                    log.display()
                )
            })?;
            if let Some(a) = line.strip_prefix("listening on ") {
                node.setup = t0.elapsed();
                node.addr = a.trim().to_string();
                if !want_repl {
                    return Ok(node);
                }
            } else if let Some(a) = line.strip_prefix("replicating on ") {
                node.repl = Some(a.trim().to_string());
                return Ok(node);
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        let status =
            std::fs::read_to_string(format!("/proc/{}/status", self.pid())).unwrap_or_default();
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .unwrap_or(f64::NAN)
    }

    /// SIGKILL and reap. The OS page cache survives, so what the node
    /// wrote with `write(2)` stays readable even if it was never fsynced.
    pub fn kill(mut self) {
        self.kill_in_place();
    }

    fn kill_in_place(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.kill_in_place();
    }
}
