//! `gen_serve`: the daemon end-to-end path.
//!
//! A `splice-serve` daemon runs with one worker; one client connection
//! holds one job in flight. Jobs run with checking off. Each rotation of
//! seven jobs is five fresh seeded variants, one per example spec (always
//! cache misses), then two repeats of this rotation's variants (cache
//! hits). The daemon is this executable re-run with `--daemon`, serving
//! through `splice_serve::serve`, and its worker is this executable re-run
//! with `--worker`, exactly as the `splice-serve` binary does it.

use crate::check_corpus::{read_corpus, SPECS};
use crate::report::{vm_hwm_kb, Outcome, RUN_DIR};
use crate::staged::{self, Staged};
use crate::stats::median;
use crate::Args;
use splice::obs::JsonValue;
use splice_serve::protocol::JobVerdict;
use splice_serve::{Client, JobOptions, Response};
use splice_testutil::Rng;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Job classes: one per example spec's fresh variant, in `SPECS` order,
/// and the repeats.
const MISS: [&str; 5] =
    ["miss.apb_sensor", "miss.dma_stream", "miss.fir_filter", "miss.hw_timer", "miss.mac"];
const HIT: &str = "hit";
/// Repeats per rotation.
const HITS: usize = 2;
/// Daemon start-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// A fresh variant of `source`: `%device_name` gains an eight-digit tag
/// and `%base_address`, where the spec has one, moves by `pages` 4 KiB
/// pages. Both keep their printed length, so the generated bytes do not
/// depend on the seed.
pub fn variant(source: &str, tag: u32, pages: u64) -> String {
    let mut out = String::with_capacity(source.len() + 9);
    for line in source.lines() {
        if let Some(name) = line.strip_prefix("%device_name ") {
            out.push_str(&format!("%device_name {}_{tag:08x}", name.trim()));
        } else if let Some(addr) = line.strip_prefix("%base_address 0x") {
            let base = u64::from_str_radix(addr.trim(), 16).expect("hex base address");
            out.push_str(&format!("%base_address 0x{:08X}", base + pages * 0x1000));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// A running daemon process.
struct Daemon {
    child: Option<Child>,
}

impl Daemon {
    /// Spawn a daemon, connect, and wait until its worker has answered one
    /// probe job. Returns the daemon, the connection and the seconds that
    /// took.
    fn start(socket: &str, probe: &str) -> Result<(Daemon, Client, f64), String> {
        let t = Instant::now();
        let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
        let child = Command::new(exe)
            .args(["--daemon", socket])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let daemon = Daemon { child: Some(child) };
        let mut client = Client::connect_with_retry(socket, Duration::from_secs(10))
            .map_err(|e| format!("connect to daemon: {e}"))?;
        client
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| format!("read timeout: {e}"))?;
        match client.generate(probe, JobOptions::default()) {
            Ok(Response::Result { verdict: JobVerdict::Ok { .. }, .. }) => {}
            other => return Err(format!("probe job: {other:?}")),
        }
        Ok((daemon, client, t.elapsed().as_secs_f64()))
    }

    fn pid(&self) -> u32 {
        self.child.as_ref().expect("daemon running").id()
    }

    /// Stop the daemon with the protocol's shutdown request and wait for
    /// it; a non-zero exit is an error.
    fn stop(mut self, client: &mut Client) -> Result<(), String> {
        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        let status = self.child.take().expect("daemon running").wait();
        match status {
            Ok(s) if s.success() => Ok(()),
            Ok(s) => Err(format!("daemon exited with {s}")),
            Err(e) => Err(format!("wait for daemon: {e}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A digest as a client reads it off the wire. The serve protocol writes
/// the FNV-64 digest as a JSON number and parses it back as an `f64`, so
/// the client sees it rounded to 53 significant bits.
fn on_the_wire(digest: u64) -> u64 {
    digest as f64 as u64
}

/// The ok verdict of a job, or what was wrong with the response.
fn verdict(
    response: Result<Response, impl std::fmt::Debug>,
) -> Result<(bool, u32, u64, u64), String> {
    match response {
        Ok(Response::Result {
            cached,
            attempts,
            verdict: JobVerdict::Ok { lint, check, denied, digest, bytes, .. },
            ..
        }) => {
            if lint != (0, 0) || check != (0, 0) || denied {
                Err(format!("verdict lint {lint:?} check {check:?} denied {denied}"))
            } else {
                Ok((cached, attempts, digest, bytes))
            }
        }
        other => Err(format!("response {other:?}")),
    }
}

/// The client side of a run: its connection, inputs and tallies.
struct Session {
    client: Client,
    sources: Vec<String>,
    rng: Rng,
    /// Device-name tag of the next rotation's variants.
    tag: u32,
    misses: u64,
    hits: u64,
    attempts: u64,
    rotation_bytes: Option<u64>,
    /// Traced misses: the staged run and the daemon round trip.
    staged: Vec<(Staged, u64)>,
    /// Traced hits' round trips.
    hit_rtts: Vec<u64>,
    /// Traced misses whose exact digest the wire rounded.
    rounded_digests: u64,
}

impl Session {
    /// Run one rotation: five fresh variants, then two repeats. When
    /// `traced`, each miss also runs in-process through the staged
    /// pipeline, whose digest must equal the daemon's.
    fn rotation(&mut self, out: &mut Outcome, traced: bool) {
        let mut order: Vec<usize> = (0..self.sources.len()).collect();
        self.rng.shuffle(&mut order);
        let mut digests = Vec::new();
        let mut bytes = 0;
        for &i in &order {
            let text = variant(&self.sources[i], self.tag, self.rng.range(1, 16));
            let local = traced.then(|| staged::run(&text, &Default::default()));
            let t = Instant::now();
            let response = self.client.generate(&text, JobOptions::default());
            let ns = t.elapsed().as_nanos() as u64;
            let problem = match verdict(response) {
                Ok((false, attempts, digest, b)) => {
                    self.misses += 1;
                    self.attempts += u64::from(attempts);
                    bytes += b;
                    digests.push((text, digest));
                    let mut problem = (attempts != 1).then(|| format!("{attempts} attempts"));
                    match local {
                        Some(Ok(s)) if on_the_wire(s.digest) == digest => {
                            self.rounded_digests += u64::from(s.digest != digest);
                            self.staged.push((s, ns));
                        }
                        Some(Ok(_)) => problem = Some("digest differs from run_pipeline's".into()),
                        Some(Err(e)) => problem = Some(format!("staged pipeline error: {e}")),
                        None => {}
                    }
                    problem
                }
                Ok((true, ..)) => Some("fresh variant served from the cache".into()),
                Err(e) => Some(e),
            };
            out.op(MISS[i], ns, problem);
        }
        let mut repeats: Vec<usize> = (0..digests.len()).collect();
        self.rng.shuffle(&mut repeats);
        for &r in repeats.iter().take(HITS) {
            let (text, digest) = &digests[r];
            let t = Instant::now();
            let response = self.client.generate(text, JobOptions::default());
            let ns = t.elapsed().as_nanos() as u64;
            let problem = match verdict(response) {
                Ok((true, _, d, _)) if d == *digest => {
                    self.hits += 1;
                    None
                }
                Ok((true, ..)) => Some("cached digest differs from the miss it repeats".into()),
                Ok((false, ..)) => Some("repeat was not served from the cache".into()),
                Err(e) => Some(e),
            };
            if traced {
                self.hit_rtts.push(ns);
            }
            out.op(HIT, ns, problem);
        }
        match self.rotation_bytes {
            None => self.rotation_bytes = Some(bytes),
            Some(b) if b != bytes => {
                out.fail(&format!("rotation artifact bytes {bytes}, first {b}"))
            }
            Some(_) => {}
        }
        self.tag = self.tag.wrapping_add(1);
    }
}

/// Peak RSS of the daemon and its workers, and the workers' restart count,
/// from `/proc` and the daemon's status document.
fn daemon_usage(pid: u32, client: &mut Client) -> Result<(u64, f64), String> {
    let body = client.status().map_err(|e| format!("status: {e}"))?;
    let doc = JsonValue::parse(&body).map_err(|e| format!("status document: {e}"))?;
    let workers: Vec<u64> = doc
        .get("workers")
        .and_then(JsonValue::as_array)
        .map(|a| a.iter().filter_map(JsonValue::as_u64).filter(|&p| p != 0).collect())
        .unwrap_or_default();
    if workers.is_empty() {
        return Err("status document lists no live worker".into());
    }
    let mut kb = vm_hwm_kb(&pid.to_string()).ok_or("daemon VmHWM")?;
    for pid in workers {
        kb += vm_hwm_kb(&pid.to_string()).ok_or("worker VmHWM")?;
    }
    let restarts = doc
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("serve.worker.restarts"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0);
    Ok((kb, restarts))
}

/// Run the workload: whole rotations through the daemon, or (traced)
/// rotations alternating between those and rotations whose misses also
/// run in-process through the staged pipeline.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let sources: Vec<String> = match read_corpus() {
        Ok(specs) => specs.into_iter().map(|s| s.source).collect(),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let probe = variant(&sources[SPECS.len() - 1], 0, 0).replace("_00000000", "_probe");
    if let Err(e) = std::fs::create_dir_all(RUN_DIR) {
        eprintln!("perfbench: {RUN_DIR}: {e}");
        std::process::exit(2);
    }
    let socket = format!("{RUN_DIR}/serve-{}.sock", std::process::id());

    let mut started = None;
    for i in 0..SETUPS {
        let (daemon, mut client, seconds) = Daemon::start(&socket, &probe).unwrap_or_else(|e| {
            eprintln!("perfbench: daemon set-up: {e}");
            std::process::exit(2);
        });
        out.setups_s.push(seconds);
        if i + 1 < SETUPS {
            if let Err(e) = daemon.stop(&mut client) {
                out.fail(&format!("set-up daemon: {e}"));
            }
        } else {
            started = Some((daemon, client));
        }
    }
    let (daemon, client) = started.expect("at least one set-up");
    let mut rng = Rng::new(args.seed);
    let tag = rng.next_u64() as u32;
    let mut session = Session {
        client,
        sources,
        rng,
        tag,
        misses: 0,
        hits: 0,
        attempts: 0,
        rotation_bytes: None,
        staged: Vec::new(),
        hit_rtts: Vec::new(),
        rounded_digests: 0,
    };

    // Memory is read once the warm-up rotation is done, as for the
    // in-process workloads; the daemon keeps one circuit breaker per
    // distinct spec, so its later growth scales with jobs served.
    let mut warm_kb = None;
    crate::run_rotations(&mut out, args, &mut |out, traced| {
        session.rotation(out, traced);
        if warm_kb.is_none() {
            warm_kb = Some(daemon_usage(daemon.pid(), &mut session.client).map(|(kb, _)| kb));
        }
    });
    match warm_kb.expect("warm-up rotation ran") {
        Ok(kb) => out.peak_rss_kb = kb,
        Err(e) => out.fail(&e),
    }
    let restarts = match daemon_usage(daemon.pid(), &mut session.client) {
        Ok((kb, restarts)) => {
            eprintln!(
                "perfbench: daemon and worker VmHWM at the end: {:.2} MiB",
                kb as f64 / 1024.0
            );
            restarts
        }
        Err(e) => {
            out.fail(&e);
            0.0
        }
    };
    if let Err(e) = daemon.stop(&mut session.client) {
        out.fail(&format!("daemon: {e}"));
    }

    let s = session;
    out.counters.insert("serve.cache.hit_ratio", s.hits as f64 / (s.hits + s.misses) as f64);
    out.counters.insert("serve.attempts_per_job", s.attempts as f64 / s.misses as f64);
    out.counters.insert("serve.verdict.bytes", s.rotation_bytes.unwrap_or(0) as f64);
    out.layer("serve.worker.restarts", restarts);
    if s.rounded_digests > 0 {
        eprintln!(
            "perfbench: note: {} of {} traced miss digests reached the client rounded to 53 bits \
             (the serve protocol carries the 64-bit digest as a JSON number)",
            s.rounded_digests,
            s.staged.len()
        );
    }
    if s.staged.is_empty() {
        return out;
    }
    let (runs, miss_rtts): (Vec<Staged>, Vec<u64>) = s.staged.into_iter().unzip();
    let us = |v: &[u64]| median(&v.iter().map(|&ns| ns as f64 / 1e3).collect::<Vec<_>>());
    out.layer("serve.rtt.miss.us", us(&miss_rtts));
    out.layer("serve.rtt.hit.us", us(&s.hit_rtts));
    let overheads: Vec<f64> = runs
        .iter()
        .zip(&miss_rtts)
        .map(|(r, &rtt)| (rtt as f64 - r.total_ns as f64) / 1e3)
        .collect();
    out.layer("serve.overhead.us", median(&overheads));
    for name in ["serve.cache.hit_ratio", "serve.attempts_per_job"] {
        let value = out.counters[name];
        out.layer(name, value);
    }
    staged::record_layers(&mut out, &runs, SPECS.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_keep_their_length_and_move_by_whole_pages() {
        let src = "%device_name fir\n%bus_type plb\n%base_address 0x80004000\nint f(int a);\n";
        let v = variant(src, 0x1234_abcd, 3);
        assert_eq!(
            v,
            "%device_name fir_1234abcd\n%bus_type plb\n%base_address 0x80007000\nint f(int a);\n"
        );
        assert_eq!(variant(src, 7, 15).len(), v.len());
        assert_ne!(variant(src, 1, 3), variant(src, 2, 3));
    }
}
