//! The server under test as a child process: `inconsist serve` spawned
//! from the release binary, its address read back from `--addr-file`,
//! its CPU time and peak memory read from `/proc`.

use inconsist_server::Client;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every mainstream Linux build).
const TICKS_PER_S: f64 = 100.0;

/// A running `inconsist serve` process. Dropping it shuts it down.
pub struct ServerProc {
    child: Option<Child>,
    pub addr: SocketAddr,
}

impl ServerProc {
    /// Spawns `binary serve <args>` with a fresh `--addr-file` under
    /// `work` and waits until it has written its address (after any
    /// preload finished).
    pub fn spawn(binary: &Path, args: &[String], work: &Path) -> Result<ServerProc, String> {
        let addr_file = work.join("addr");
        let _ = std::fs::remove_file(&addr_file);
        let child = Command::new(binary)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--addr-file"])
            .arg(&addr_file)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let mut proc = ServerProc {
            child: Some(child),
            addr: "0.0.0.0:0".parse().unwrap(),
        };
        let deadline = Instant::now() + Duration::from_secs(120);
        loop {
            if let Some(addr) = std::fs::read_to_string(&addr_file)
                .ok()
                .and_then(|s| s.trim().parse().ok())
            {
                proc.addr = addr;
                return Ok(proc);
            }
            if let Some(status) = proc
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(format!("server exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("server did not start within 120 s".into());
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// This process and its direct children (spawned worker shards).
    fn pids(&self) -> Vec<u32> {
        family(self.pid())
    }

    /// User + system CPU seconds of the server process(es) so far.
    pub fn cpu_s(&self) -> f64 {
        self.pids()
            .into_iter()
            .filter_map(stat_fields)
            .map(|f| {
                // Fields after the `(comm)`: state=0, ppid=1, … utime=11, stime=12.
                let ticks: f64 =
                    f[11].parse::<f64>().unwrap_or(0.0) + f[12].parse::<f64>().unwrap_or(0.0);
                ticks / TICKS_PER_S
            })
            .sum()
    }

    /// Peak resident memory (VmHWM) summed over the server process(es), MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        self.pids()
            .into_iter()
            .filter_map(|pid| std::fs::read_to_string(format!("/proc/{pid}/status")).ok())
            .filter_map(|s| {
                s.lines()
                    .find(|l| l.starts_with("VmHWM:"))
                    .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
            })
            .sum::<f64>()
            / 1024.0
    }

    /// Ends the process with SIGKILL, no shutdown snapshot (a crash).
    pub fn kill(mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Asks the server to shut down and waits for it (and the worker
    /// shards it supervises) to exit; kills whatever is left after 20 s.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(mut child) = self.child.take() else {
            return;
        };
        let me = child.id();
        let children: Vec<u32> = family(me).into_iter().filter(|&p| p != me).collect();
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.request("{\"cmd\":\"shutdown\"}");
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = child.try_wait() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = child.kill();
        let _ = child.wait();
        // Worker shards exit with their coordinator; make sure of it.
        for pid in children {
            while Path::new(&format!("/proc/{pid}")).exists() && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
            if Path::new(&format!("/proc/{pid}")).exists() {
                let _ = Command::new("kill").args(["-9", &pid.to_string()]).status();
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// `parent` and its direct children.
fn family(parent: u32) -> Vec<u32> {
    let mut pids = vec![parent];
    for entry in std::fs::read_dir("/proc").into_iter().flatten().flatten() {
        let Some(pid) = entry
            .file_name()
            .to_str()
            .and_then(|s| s.parse::<u32>().ok())
        else {
            continue;
        };
        if stat_fields(pid).and_then(|f| f.get(1).and_then(|p| p.parse().ok())) == Some(parent) {
            pids.push(pid);
        }
    }
    pids
}

/// Fields of `/proc/<pid>/stat` after the parenthesised command name.
fn stat_fields(pid: u32) -> Option<Vec<String>> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    let rest = &text[text.rfind(')')? + 1..];
    Some(rest.split_whitespace().map(str::to_string).collect())
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    let mut stack: Vec<PathBuf> = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in std::fs::read_dir(&d).into_iter().flatten().flatten() {
            match entry.metadata() {
                Ok(m) if m.is_dir() => stack.push(entry.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}
