//! A real `sdfmem serve` daemon on TCP loopback, and a blocking
//! connection to it that times each round trip at the client.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use sdf_service::ServiceRequest;
use sdf_trace::json::{self, Json};

use crate::common::{cpu_ms, mean, ms, ns_to_ms, peak_rss_mib, Speed};

/// A running daemon child process. Dropping it kills the process.
pub struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    /// Starts `sdfmem serve` on an ephemeral loopback port and waits
    /// until it accepts connections.
    pub fn start(sdfmem: &Path, workdir: &Path) -> Result<Daemon, String> {
        let port_file: PathBuf = workdir.join(format!("daemon-{}.port", std::process::id()));
        let _ = std::fs::remove_file(&port_file);
        let child = Command::new(sdfmem)
            .args(["serve", "127.0.0.1:0", "--workers", "2"])
            .args(["--cache-cap", "256", "--queue-cap", "64", "--port-file"])
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", sdfmem.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Some(addr) = text.strip_suffix('\n') {
                    if TcpStream::connect(addr).is_ok() {
                        daemon.addr = addr.to_string();
                        let _ = std::fs::remove_file(&port_file);
                        return Ok(daemon);
                    }
                }
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up: {status}"));
            }
            if Instant::now() > deadline {
                return Err("daemon did not accept connections within 20 s".to_string());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::connect(&self.addr)
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Peak resident memory of the daemon process.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        peak_rss_mib(Some(self.child.id()))
    }

    /// Asks the daemon to shut down and waits for it to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let shutdown = ServiceRequest::Shutdown.to_json("stop");
        let asked = self.connect().and_then(|mut c| c.round_trip(&shutdown));
        let deadline = Instant::now() + Duration::from_secs(10);
        while asked.is_ok() && Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) => std::thread::sleep(Duration::from_millis(2)),
                Err(e) => return Err(format!("cannot wait for the daemon: {e}")),
            }
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        Err("daemon did not shut down cleanly".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One client connection.
pub struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    buf: String,
}

impl Conn {
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("cannot set TCP_NODELAY: {e}"))?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("cannot set a read timeout: {e}"))?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            writer: stream,
            reader,
            buf: String::new(),
        })
    }

    /// Sends one request line (newline appended) and returns the
    /// response line with the round-trip time in milliseconds.
    pub fn round_trip(&mut self, line: &str) -> Result<(String, f64), String> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        self.buf.clear();
        let t = Instant::now();
        self.writer
            .write_all(&bytes)
            .map_err(|e| format!("cannot send: {e}"))?;
        let n = self
            .reader
            .read_line(&mut self.buf)
            .map_err(|e| format!("no response: {e}"))?;
        let rtt = ms(t.elapsed());
        if n == 0 {
            return Err("daemon closed the connection".to_string());
        }
        Ok((std::mem::take(&mut self.buf), rtt))
    }

    /// A round trip that also returns the CPU milliseconds the daemon
    /// `pid` spent meanwhile: the request's cost when it is the only
    /// request in flight. Returns ((response, round trip ms), CPU ms).
    pub fn measured_trip(&mut self, line: &str, pid: u32) -> Result<((String, f64), f64), String> {
        let before = cpu_ms(Some(pid))?;
        let answer = self.round_trip(line)?;
        Ok((answer, cpu_ms(Some(pid))? - before))
    }
}

/// The parts of a response envelope the benchmark checks.
pub struct Reply {
    pub status: String,
    pub cached: bool,
    /// The payload document, verbatim (for `ok` responses).
    pub payload: Option<String>,
    pub error_code: Option<String>,
    /// `telemetry.cache`: `hit`, `miss` or `uncached`.
    pub cache: String,
    pub queue_wait_ns: u64,
    pub service_ns: u64,
}

/// Splits a response line into envelope and verbatim payload. The
/// envelope places `payload` last, and its marker cannot occur inside a
/// JSON string, so the first match is the member boundary.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    const MARKER: &str = ",\"payload\":";
    let line = line.trim_end();
    let (head, payload) = match line.find(MARKER) {
        Some(at) => {
            let payload = line[at + MARKER.len()..]
                .strip_suffix('}')
                .ok_or("response envelope not closed")?;
            (format!("{}}}", &line[..at]), Some(payload.to_string()))
        }
        None => (line.to_string(), None),
    };
    let doc = json::parse(&head).map_err(|e| format!("bad response envelope: {e}"))?;
    let telemetry = doc.get("telemetry");
    let num = |name: &str| {
        telemetry
            .and_then(|t| t.get(name))
            .and_then(Json::as_num)
            .map_or(0, |v| v as u64)
    };
    Ok(Reply {
        status: doc
            .get("status")
            .and_then(Json::as_str)
            .ok_or("response without status")?
            .to_string(),
        cached: doc.get("cached").and_then(Json::as_bool).unwrap_or(false),
        payload,
        error_code: doc
            .get("error")
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .map(str::to_string),
        cache: telemetry
            .and_then(|t| t.get("cache"))
            .and_then(Json::as_str)
            .unwrap_or("none")
            .to_string(),
        queue_wait_ns: num("queue_wait_ns"),
        service_ns: num("service_ns"),
    })
}

/// How one answered request counts.
pub enum Verdict {
    Ok,
    /// Failed without a wrong output: a backpressure rejection.
    Failed,
    /// A wrong output; the run is incorrect.
    Wrong(String),
}

/// One answered request, as a traced run needs it.
pub struct Sample {
    pub item: usize,
    pub rtt_ms: f64,
    /// `telemetry.cache`, or `none` when the response carried none.
    pub cache: String,
    pub queue_wait_ns: u64,
    pub service_ns: u64,
    pub payload_bytes: usize,
}

impl Sample {
    pub fn new(item: usize, rtt_ms: f64, reply: &Reply) -> Sample {
        Sample {
            item,
            rtt_ms,
            cache: reply.cache.clone(),
            queue_wait_ns: reply.queue_wait_ns,
            service_ns: reply.service_ns,
            payload_bytes: reply.payload.as_ref().map_or(0, String::len),
        }
    }
}

/// The service-layer figures of a traced window, from the client clock
/// and each response's `telemetry` member. A round trip splits into
/// wire time, queue wait and service time, so the three add up.
pub fn service_layers(samples: &[Sample], rejected: u64, out: &mut BTreeMap<&'static str, f64>) {
    let misses: Vec<&Sample> = samples.iter().filter(|s| s.cache == "miss").collect();
    let hits = samples.iter().filter(|s| s.cache == "hit").count();
    let wire: Vec<f64> = samples
        .iter()
        .filter(|s| s.cache != "none")
        .map(|s| s.rtt_ms - ns_to_ms(s.queue_wait_ns) - ns_to_ms(s.service_ns))
        .collect();
    let payloads: Vec<f64> = samples
        .iter()
        .filter(|s| s.payload_bytes > 0)
        .map(|s| s.payload_bytes as f64)
        .collect();
    let over_misses =
        |f: fn(&Sample) -> u64| mean(&misses.iter().map(|s| ns_to_ms(f(s))).collect::<Vec<_>>());
    out.insert("service.queue_wait_ms", over_misses(|s| s.queue_wait_ns));
    out.insert("service.exec_ms", over_misses(|s| s.service_ns));
    out.insert("service.wire_ms", mean(&wire));
    out.insert(
        "service.cache.hit_ratio",
        hits as f64 / (hits + misses.len()).max(1) as f64,
    );
    out.insert("service.rejected", rejected as f64);
    out.insert("service.payload_bytes", mean(&payloads));
}

/// Runs set-up `SETUPS` times — `prepare` (input generation), a
/// fresh daemon until it accepts connections, then `warm_up` — keeping
/// the last daemon and inputs. Returns them with the median set-up CPU
/// time in seconds, this process's and the new daemon's together,
/// scaled by `speed`.
pub fn set_up_repeatedly<T>(
    cfg: &crate::Config,
    speed: &mut Speed,
    mut prepare: impl FnMut() -> Result<T, String>,
    mut warm_up: impl FnMut(&Daemon, &T) -> Result<(), String>,
) -> Result<(Daemon, T, f64), String> {
    let sdfmem = cfg.sdfmem()?;
    let mut times = Vec::new();
    let mut kept: Option<(Daemon, T)> = None;
    for _ in 0..crate::SETUPS {
        if let Some((old, _)) = kept.take() {
            old.stop()?;
        }
        let (set_up, ms) = speed.scaled(|| {
            let before = cpu_ms(None)?;
            let inputs = prepare()?;
            let daemon = Daemon::start(sdfmem, &cfg.workdir)?;
            warm_up(&daemon, &inputs)?;
            let own = cpu_ms(None)? - before;
            let ms = own + cpu_ms(Some(daemon.pid()))?;
            Ok(((daemon, inputs), ms))
        })?;
        times.push(ms / 1e3);
        kept = Some(set_up);
    }
    let (daemon, inputs) = kept.ok_or("no set-up ran")?;
    Ok((daemon, inputs, crate::common::median(&times)))
}

/// Reads the pool and non-shared words a result document reports, and
/// requires a clean interpreter-oracle verdict where it carries one.
///
/// | document | pool | non-shared |
/// |---|---|---|
/// | `engine_report` | winner's `shared_total` | `nonshared_bufmem` |
/// | `simulation_report` | `exec.pool_words` | Σ buffer sizes of the plan |
/// | `allocation_explain` | `pool_total` | `non_shared_total` |
/// | `mode_report` | `merged_pool_words` | Σ per-mode `nonshared_bufmem` |
/// | `edit_report` | `shared_total` | `nonshared_bufmem` |
pub fn observe_payload(payload: &str) -> Result<crate::common::Expect, String> {
    let doc = json::parse(payload).map_err(|e| format!("bad payload JSON: {e}"))?;
    let num = |v: Option<&Json>, what: &str| {
        v.and_then(Json::as_num)
            .map(|n| n as u64)
            .ok_or_else(|| format!("payload without {what}"))
    };
    let clean = |doc: &Json| match doc.get("clean").and_then(Json::as_bool) {
        Some(true) => Ok(()),
        _ => Err(format!(
            "interpreter oracle not clean: {}",
            doc.get("error")
                .and_then(Json::as_str)
                .unwrap_or("no verdict")
        )),
    };
    let (pool, nonshared) = match doc.get("kind").and_then(Json::as_str).unwrap_or("") {
        "engine_report" => {
            let winner = num(doc.get("winner"), "winner")? as usize;
            let candidate = doc
                .get("candidates")
                .and_then(Json::as_array)
                .and_then(|c| c.get(winner));
            (
                num(
                    candidate.and_then(|c| c.get("shared_total")),
                    "shared_total",
                )?,
                num(doc.get("nonshared_bufmem"), "nonshared_bufmem")?,
            )
        }
        "simulation_report" => {
            clean(&doc)?;
            let bindings = doc
                .get("plan")
                .and_then(|p| p.get("bindings"))
                .and_then(Json::as_array)
                .ok_or("simulation_report without plan bindings")?;
            let mut sizes = 0;
            for b in bindings {
                sizes += num(b.get("size"), "binding size")?;
            }
            (
                num(
                    doc.get("exec").and_then(|e| e.get("pool_words")),
                    "pool_words",
                )?,
                sizes,
            )
        }
        "allocation_explain" => (
            num(doc.get("pool_total"), "pool_total")?,
            num(doc.get("non_shared_total"), "non_shared_total")?,
        ),
        "mode_report" => {
            clean(&doc)?;
            if doc.get("gate_ok").and_then(Json::as_bool) != Some(true) {
                return Err("mode_report fails its pool gate".to_string());
            }
            let modes = doc
                .get("modes")
                .and_then(Json::as_array)
                .ok_or("mode_report without modes")?;
            let mut nonshared = 0;
            for m in modes {
                nonshared += num(m.get("nonshared_bufmem"), "nonshared_bufmem")?;
            }
            (
                num(doc.get("merged_pool_words"), "merged_pool_words")?,
                nonshared,
            )
        }
        "edit_report" => (
            num(doc.get("shared_total"), "shared_total")?,
            num(doc.get("nonshared_bufmem"), "nonshared_bufmem")?,
        ),
        other => return Err(format!("unexpected payload kind {other:?}")),
    };
    Ok(crate::common::Expect::Ok { pool, nonshared })
}
