//! `futil serve`: the long-lived JSON-lines compilation server.
//!
//! One request per input line, one response per output line (see
//! [`protocol`](crate::protocol) for the key tables). The server keeps
//! the registries and the [`ParseCache`](crate::cache::ParseCache) warm
//! across requests, dispatches jobs to a [`WorkerPool`], and **streams
//! responses as jobs finish** — under `--jobs N` the order responses
//! come back is completion order, and the `id` field ties each response
//! to its request. Malformed requests produce an immediate
//! `status: "error"` response; they never terminate the server. EOF on
//! the request stream is the shutdown signal: the server drains every
//! in-flight job, flushes, and returns.

use crate::engine::{CompileService, JobDefaults};
use crate::pool::WorkerPool;
use crate::protocol::{render_listing, JobResponse, Request, Status};
use parking_lot::Mutex;
use std::io::{BufRead, Write};
use std::sync::Arc;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOpts {
    /// Worker threads compiling concurrently.
    pub jobs: usize,
    /// Defaults for request fields left unset (set
    /// [`JobDefaults::inline_output`] to return output in responses).
    pub defaults: JobDefaults,
}

impl Default for ServeOpts {
    fn default() -> Self {
        ServeOpts {
            jobs: WorkerPool::default_jobs(),
            defaults: JobDefaults {
                inline_output: true,
                ..JobDefaults::default()
            },
        }
    }
}

fn respond<W: Write>(writer: &Mutex<W>, line: &str) {
    // A reader that hangs up mid-stream is that connection's problem,
    // not the server's; remaining responses are dropped on the floor.
    let mut w = writer.lock();
    let _ = writeln!(w, "{line}");
    let _ = w.flush();
}

/// Serve requests from `reader` until EOF, writing one response line per
/// request to `writer`. Returns the writer after every in-flight job has
/// drained, so callers can keep using the stream (or assert on it).
///
/// Blank lines are ignored. Request `id`s are assigned in arrival order,
/// starting at 0, counting malformed requests (a line that is not JSON,
/// nests too deep, or is not UTF-8) too.
///
/// # Errors
///
/// Only transport failures on `reader` are errors — bad requests and
/// failed jobs are *responses*.
pub fn serve<R, W>(
    service: &CompileService,
    reader: R,
    writer: W,
    opts: &ServeOpts,
) -> std::io::Result<W>
where
    R: BufRead,
    W: Write + Send + 'static,
{
    let writer = Arc::new(Mutex::new(writer));
    let mut next_id = 0;
    {
        let pool = WorkerPool::new(opts.jobs);
        // Lines are read as bytes: one that is not UTF-8 is a bad request,
        // not the end of the stream.
        for line in reader.split(b'\n') {
            let request = match String::from_utf8(line?) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => Request::from_json_line(&line),
                Err(e) => Err(format!(
                    "column {}: the request is not valid UTF-8",
                    e.utf8_error().valid_up_to() + 1
                )),
            };
            let id = next_id;
            next_id += 1;
            match request {
                Err(msg) => {
                    // Malformed input answers immediately (preserving
                    // arrival order for the `id`) and the server lives.
                    respond(
                        &writer,
                        &JobResponse::fail(id, "", Status::Error, format!("bad request: {msg}"))
                            .render(),
                    );
                }
                Ok(Request::List(kind)) => {
                    // Listings are registry reads; answer inline.
                    let line = match service.list_items(&kind) {
                        Ok(items) => render_listing(id, &kind, &items),
                        Err(msg) => JobResponse::fail(id, "", Status::Error, msg).render(),
                    };
                    respond(&writer, &line);
                }
                Ok(Request::Job(req)) => {
                    let service = service.clone();
                    let defaults = opts.defaults.clone();
                    let writer = Arc::clone(&writer);
                    pool.submit(move || {
                        let resp = service.execute(id, &req, &defaults);
                        respond(&writer, &resp.render());
                    });
                }
            }
        }
    } // EOF: join the workers — every accepted job has answered
    let writer = Arc::try_unwrap(writer)
        .unwrap_or_else(|_| unreachable!("workers joined; no writer clones remain"));
    let mut writer = writer.into_inner();
    writer.flush()?;
    Ok(writer)
}

/// Serve connections on a unix socket at `path`, accepting them one at a
/// time; each connection speaks the same JSON-lines protocol and shares
/// the service's warm parse cache. A stale socket file at `path` is
/// replaced. `max_connections` bounds the accept loop (`None` serves
/// forever) so tests and scripted drivers can terminate it.
///
/// # Errors
///
/// Binding and accepting errors are fatal; per-connection I/O failures
/// end that connection only.
#[cfg(unix)]
pub fn serve_socket(
    service: &CompileService,
    path: &std::path::Path,
    opts: &ServeOpts,
    max_connections: Option<usize>,
) -> std::io::Result<()> {
    use std::os::unix::net::UnixListener;

    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    for (served, stream) in listener.incoming().enumerate() {
        let stream = stream?;
        let reader = std::io::BufReader::new(stream.try_clone()?);
        if serve(service, reader, stream, opts).is_err() {
            // This connection died mid-request; the next one is fine.
        }
        if max_connections.is_some_and(|max| served + 1 >= max) {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    const PROGRAM: &str = "component main() -> () { cells {} wires {} control {} }";

    fn serve_lines(input: &str, jobs: usize) -> Vec<String> {
        let service = CompileService::new();
        let opts = ServeOpts {
            jobs,
            ..ServeOpts::default()
        };
        let out = serve(&service, input.as_bytes(), Vec::new(), &opts).unwrap();
        String::from_utf8(out)
            .unwrap()
            .lines()
            .map(str::to_string)
            .collect()
    }

    fn by_id(lines: &[String], id: u64) -> json::Json {
        lines
            .iter()
            .map(|l| json::parse(l).unwrap())
            .find(|v| v.get("id").unwrap().as_u64() == Some(id))
            .unwrap_or_else(|| panic!("no response with id {id}"))
    }

    #[test]
    fn serves_jobs_listings_and_errors_on_one_stream() {
        let input = format!(
            "{}\n\n{}\n{}\n",
            json::Json::obj([("source", PROGRAM.into()), ("name", "p".into())]).render(),
            r#"{"list": "backends"}"#,
            r#"{"sorce": "x"}"#,
        );
        let lines = serve_lines(&input, 1);
        assert_eq!(lines.len(), 3);

        let job = by_id(&lines, 0);
        assert_eq!(job.get("status").unwrap().as_str(), Some("ok"));
        assert_eq!(job.get("name").unwrap().as_str(), Some("p"));
        assert!(job
            .get("output")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("component main"));

        let listing = by_id(&lines, 1);
        assert_eq!(listing.get("list").unwrap().as_str(), Some("backends"));
        assert!(!listing.get("items").unwrap().as_arr().unwrap().is_empty());

        let bad = by_id(&lines, 2);
        assert_eq!(bad.get("status").unwrap().as_str(), Some("error"));
        assert!(bad
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("bad request"));
    }

    /// The acceptance bulkhead: a malformed request and a parse-failing
    /// job cannot take the server down — later requests still answer.
    #[test]
    fn survives_malformed_requests_and_failing_jobs() {
        let input = format!(
            "this is not json\n{}\n{}\n",
            r#"{"source": "component main( {"}"#,
            json::Json::obj([("source", PROGRAM.into())]).render(),
        );
        let lines = serve_lines(&input, 2);
        assert_eq!(lines.len(), 3);
        assert_eq!(
            by_id(&lines, 0).get("status").unwrap().as_str(),
            Some("error")
        );
        assert_eq!(
            by_id(&lines, 1).get("status").unwrap().as_str(),
            Some("error")
        );
        assert_eq!(by_id(&lines, 2).get("status").unwrap().as_str(), Some("ok"));
    }

    #[cfg(unix)]
    #[test]
    fn unix_socket_round_trips() {
        use std::io::{BufRead, BufReader, Write};
        use std::os::unix::net::UnixStream;

        let dir = std::env::temp_dir().join(format!("futil-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("futil.sock");
        let spath = path.clone();
        let server = std::thread::spawn(move || {
            let service = CompileService::new();
            serve_socket(&service, &spath, &ServeOpts::default(), Some(1)).unwrap();
        });
        // The listener may not be bound yet; retry briefly.
        let mut stream = loop {
            match UnixStream::connect(&path) {
                Ok(s) => break s,
                Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
            }
        };
        stream.write_all(b"{\"list\": \"frontends\"}\n").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut line = String::new();
        BufReader::new(&stream).read_line(&mut line).unwrap();
        let v = json::parse(&line).unwrap();
        assert_eq!(v.get("list").unwrap().as_str(), Some("frontends"));
        server.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
