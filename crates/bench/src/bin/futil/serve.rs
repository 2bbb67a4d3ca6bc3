//! `futil serve`: a long-lived JSON-lines compilation server on
//! stdin/stdout (or a `--socket` unix socket), sharing one warm parse
//! cache across every request.

use crate::flags::Args;
use calyx_service::{CompileService, ServeOpts, Session, WorkerPool};
use std::path::Path;
use std::process::exit;

pub fn run(session: Session, args: Args) -> ! {
    let opts = ServeOpts {
        jobs: args.jobs.unwrap_or_else(WorkerPool::default_jobs),
        defaults: calyx_service::JobDefaults {
            inline_output: true,
            ..args.defaults
        },
    };
    let service = CompileService::with_session(session);
    let result = match args.socket {
        Some(path) => {
            let socket = Path::new(&path);
            calyx_service::serve_socket(&service, socket, &opts, args.max_connections)
        }
        None => calyx_service::serve(&service, std::io::stdin().lock(), std::io::stdout(), &opts)
            .map(|_| ()),
    };
    if let Err(e) = result {
        eprintln!("futil: serve: {e}");
        exit(1);
    }
    exit(0);
}
