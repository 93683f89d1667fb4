//! The serve workloads' side of the socket: a child `tetris serve`
//! process, a keep-alive HTTP/1.1 client, and a temporary cache directory.
//! Dropping a [`Server`] kills and reaps the child; dropping a [`TempDir`]
//! removes it, so every exit path (errors and panics included) cleans up.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use tetris_server::json::{self, Value};

/// A directory removed on drop.
pub struct TempDir(pub PathBuf);

impl TempDir {
    pub fn new(scratch: &Path, tag: &str) -> Result<TempDir, String> {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let k = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = scratch.join(format!("{tag}-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running child server on a loopback port it chose itself.
pub struct Server {
    child: Child,
    pub port: u16,
    drain: Option<std::thread::JoinHandle<()>>,
}

impl Server {
    /// Starts `bin serve --addr 127.0.0.1:0 <extra…>`, reads the port from
    /// its `listening on` line and waits until `/healthz` answers.
    pub fn start(bin: &Path, extra: &[String]) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        die_with_parent(&mut cmd);
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let port = loop {
            line.clear();
            match out.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server exited before listening".into());
                }
                Ok(_) => {}
            }
            if let Some(addr) = line.trim().strip_prefix("listening on http://") {
                let port = addr.rsplit(':').next().and_then(|p| p.parse::<u16>().ok());
                match port {
                    Some(p) => break p,
                    None => return Err(format!("bad listening line {line:?}")),
                }
            }
        };
        // Keep draining stdout so the child can never block on a full pipe.
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut out, &mut std::io::sink());
        });
        let server = Server {
            child,
            port,
            drain: Some(drain),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(mut c) = Conn::open(port) {
                if c.get("/healthz")
                    .map(|(code, _)| code == 200)
                    .unwrap_or(false)
                {
                    return Ok(server);
                }
            }
            if Instant::now() > deadline {
                return Err("server never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The child's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(d) = self.drain.take() {
            let _ = d.join();
        }
    }
}

/// Asks the kernel to kill the child when this process dies, so a
/// benchmark killed by a timeout leaves no server behind.
#[cfg(target_os = "linux")]
fn die_with_parent(cmd: &mut Command) {
    use std::os::unix::process::CommandExt;
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_PDEATHSIG: i32 = 1;
    const SIGKILL: u64 = 9;
    // SAFETY: runs in the forked child before exec; prctl is
    // async-signal-safe and touches no memory shared with the parent.
    unsafe {
        cmd.pre_exec(|| {
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            Ok(())
        });
    }
}

#[cfg(not(target_os = "linux"))]
fn die_with_parent(_cmd: &mut Command) {}

/// `VmHWM` from a `/proc/<pid>/status` file, in MiB.
pub fn peak_rss_mb(status_path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(status_path).ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// One keep-alive client connection.
pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn open(port: u16) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(("127.0.0.1", port))?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(4096),
        })
    }

    fn request(&mut self, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: keep-alive\r\n\
             Content-Type: application/json\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut msg = head.into_bytes();
        msg.extend_from_slice(body.as_bytes());
        self.stream
            .write_all(&msg)
            .map_err(|e| format!("send {path}: {e}"))?;
        self.read_response()
            .map_err(|e| format!("{method} {path}: {e}"))
    }

    fn read_response(&mut self) -> Result<(u16, String), String> {
        let mut chunk = [0u8; 16384];
        let head_end = loop {
            if let Some(p) = find(&self.buf, b"\r\n\r\n") {
                break p + 4;
            }
            let n = self.stream.read(&mut chunk).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("connection closed".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&self.buf[..head_end]).to_string();
        let code: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .ok_or("bad status line")?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or("no Content-Length")?;
        while self.buf.len() < head_end + len {
            let n = self.stream.read(&mut chunk).map_err(|e| e.to_string())?;
            if n == 0 {
                return Err("connection closed mid-body".into());
            }
            self.buf.extend_from_slice(&chunk[..n]);
        }
        let body = String::from_utf8_lossy(&self.buf[head_end..head_end + len]).to_string();
        self.buf.drain(..head_end + len);
        Ok((code, body))
    }

    pub fn get(&mut self, path: &str) -> Result<(u16, String), String> {
        self.request("GET", path, "")
    }

    pub fn post(&mut self, path: &str, body: &str) -> Result<(u16, String), String> {
        self.request("POST", path, body)
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

/// The `job_ids` of a `POST /batch` acknowledgment.
pub fn job_ids(body: &str) -> Result<Vec<u64>, String> {
    let doc = json::parse(body)?;
    let ids = doc
        .get("job_ids")
        .and_then(Value::as_arr)
        .ok_or("no job_ids")?;
    ids.iter()
        .map(|v| {
            v.as_num()
                .map(|n| n as u64)
                .ok_or_else(|| "bad job id".to_string())
        })
        .collect()
}
