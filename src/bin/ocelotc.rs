//! `ocelotc` — the Ocelot command-line toolchain.
//!
//! `ocelotc --help` prints every command's usage ([`COMMANDS`]) and
//! `ocelotc <command> --help` one command's; `fleet` and
//! `bench <driver>` print their own fuller usage.

use ocelot::prelude::*;
use std::process::ExitCode;

/// The one-line synopsis, printed alone when no command is given.
const USAGE: &str =
    "usage: ocelotc <compile|check|lint|policies|summaries|progress|run|bench|fleet\
                     |scenario|serve|trace-check> <file> [options]";

/// Every command's usage, in `ocelotc --help` order. A command's
/// section runs from its `ocelotc <command>` line to the next one.
const COMMANDS: &str = "\
ocelotc compile <file>        infer regions, print the transformed program
ocelotc check   <file>        checker mode: validate existing regions (§8)
ocelotc lint    <file> [opts] static policy-feasibility and
                              check-placement analysis (docs/lint.md):
                              infeasible freshness windows, dead
                              policies, statically redundant checks,
                              regions that cannot fit the buffer,
                              obligations blocked by unbounded loops
    --window-us <µs>          freshness expiry window to check
                              (enables OC001/OC002)
    --capacity-nj <nj>        energy buffer to check regions against
                              (enables OC006/OC007)
    --format <text|json>      output format (default text)
    --deny-warnings           exit nonzero on warnings, not just errors
ocelotc policies <file>       print the derived policy declarations
ocelotc summaries <file>      print Figure-5 function summaries (FS)
ocelotc progress <file> [opts] forward-progress report: worst-case
                              region energy vs. the buffer (§5.3/§10)
    --capacity <nj>           capacitor capacity (default Capybara 50 µJ)
    --trigger <nj>            comparator trigger (default 4 µJ)
    --jit                     analyze without region inference
ocelotc run     <file> [opts] execute on simulated harvested power
    --continuous              bench power instead of harvesting
    --jit                     skip region inference (JIT-only build)
    --backend <interp|compiled> execution engine (default interp);
                              identical results, compiled is faster
    --tics <µs>               JIT + TICS-style expiry window with
                              restart mitigation (implies --jit)
    --runs <n>                complete program runs (default 10)
    --seed <n>                environment/harvester seed (default 1)
    --sensor <name>=<value>   constant sensor value (repeatable)
    --trace-out <path>        write a Chrome trace_event JSON of the
                              pipeline + execution spans (load it at
                              ui.perfetto.dev)
    --metrics                 print the telemetry counter snapshot
                              after the runs
ocelotc bench <driver> [opts] run one evaluation driver (Table 2(a),
                              Figure 7, ...) through the parallel
                              harness, or re-render it from its
                              persisted artifact
    --list                    list the available drivers
    --jobs <n>                worker threads for the sweep
    --out <dir>               artifact directory
                              (default target/bench-results)
    --runs <n> / --seed <n>   scale/seed overrides
    --traces                  persist raw per-cell observation logs
                              (uniform sweeps; composes with --replay)
    --replay                  render from the persisted artifact
                              without re-simulating
ocelotc fleet [opts]          fleet-scale sweep: a million devices
                              running one app across the scenario
                              registry on one shared compiled
                              program, aggregated per scenario
    --app <name>              benchmark to deploy (default tire)
    --devices <n>             fleet size (default 200000)
    --runs <n>                program runs per device (default 5)
    --seed <n>                seed-range start (default 1)
    --jobs <n>                worker threads (default all cores)
    --backend <interp|compiled> execution engine (default compiled)
    --scenario <name[@seed]>  scenario distribution (repeatable;
                              default: the whole registry)
    --out <dir>               artifact directory
ocelotc serve [opts]          always-on enforcement server: clients
                              speak line-delimited JSON over TCP
                              (submit / verify / lint / run / sweep,
                              see docs/serve.md); programs, analysis
                              results, and per-scenario machine
                              cores stay cached between requests;
                              run / sweep simulate on the compiled
                              engine unless a request names
                              `\"backend\": \"interp\"`
    --addr <host:port>        bind address (default 127.0.0.1:7433;
                              port 0 picks an ephemeral port)
    --jobs <n>                worker threads for sweep fan-out
                              (default all cores)
    --max-programs <n>        program-cache capacity; submissions
                              past it are refused (default 64)
    --max-inflight <n>        concurrent requests before `server
                              busy` replies (default 32)
    --self-test               boot on an ephemeral port, replay an
                              edit-trace workload through a real
                              client (verifying and linting each
                              edit, and checking run / sweep against
                              the interpreter), report, and exit
    --trace-out <path>        record per-request `serve.request`
                              spans and write the Chrome trace when
                              the server stops
    --metrics                 print the telemetry counter snapshot
                              when the server stops (clients can
                              also poll the `metrics` op live)
ocelotc trace-check <file> [span...]
                              validate a --trace-out file: parse it
                              with the strict JSON reader, list the
                              distinct span names, and fail unless
                              every named span is present (the CI
                              trace-smoke step)
ocelotc scenario <action>     the declarative scenario library
    list                      enumerate the registered scenarios
    describe <name[@seed]>    channels, supply, and workload binding
    run <name[@seed]> [opts]  run an app under the scenario's world
                              and supply
      --app <name>            app to run (default: the scenario's
                              suggested app; any paper or extension
                              app works)
      --jit                   skip region inference (JIT-only build)
      --backend <interp|compiled> execution engine (default interp)
      --runs <n>              complete program runs (default: the
                              scenario's binding)
      --seed <n>              reseed the scenario
";

/// The section of [`COMMANDS`] that documents `cmd`.
fn command_usage(cmd: &str) -> Option<&'static str> {
    let head = format!("ocelotc {cmd} ");
    let start = COMMANDS
        .match_indices(&head)
        .map(|(i, _)| i)
        .find(|&i| i == 0 || COMMANDS.as_bytes()[i - 1] == b'\n')?;
    let end = COMMANDS[start..]
        .find("\nocelotc ")
        .map_or(COMMANDS.len(), |n| start + n + 1);
    Some(&COMMANDS[start..end])
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let is_help = |a: &String| a == "--help" || a == "-h";
    if is_help(&args[0]) {
        print!("{USAGE}\n\n{COMMANDS}");
        return ExitCode::SUCCESS;
    }
    // `fleet` and `bench <driver>` parse their own `--help`.
    let own_help = cmd == "fleet" || (cmd == "bench" && !rest.first().is_some_and(is_help));
    if !own_help && rest.iter().any(is_help) {
        if let Some(usage) = command_usage(cmd) {
            print!("{usage}");
            return ExitCode::SUCCESS;
        }
    }
    // `bench`, `fleet`, and `scenario` take registry names, not source
    // files.
    if cmd == "bench" {
        return cmd_bench(rest);
    }
    if cmd == "fleet" {
        return ocelot_bench::fleet::fleet_main(rest);
    }
    if cmd == "scenario" {
        return cmd_scenario(rest);
    }
    if cmd == "serve" {
        return cmd_serve(rest);
    }
    if cmd == "trace-check" {
        return cmd_trace_check(rest);
    }
    // `lint` wants the raw source (its diagnostics carry source spans),
    // so it reads the file itself instead of going through the shared
    // compile-then-dispatch path below.
    if cmd == "lint" {
        return cmd_lint(rest);
    }
    let Some(path) = rest.first() else {
        eprintln!("error: missing input file");
        return ExitCode::from(2);
    };
    // Telemetry must be live before the front-end runs, or the `parse`
    // span (recorded inside `compile` below) is lost; `cmd_run` parses
    // the flags properly afterwards.
    ocelot_telemetry::set_tracing(rest.iter().any(|a| a == "--trace-out"));
    ocelot_telemetry::set_metrics(rest.iter().any(|a| a == "--metrics"));
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let program = match compile(&src) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        "compile" => cmd_compile(program),
        "check" => cmd_check(program),
        "policies" => cmd_policies(program),
        "summaries" => cmd_summaries(program),
        "progress" => cmd_progress(program, &rest[1..]),
        "run" => cmd_run(program, &rest[1..]),
        other => {
            eprintln!("error: unknown command `{other}`");
            ExitCode::from(2)
        }
    }
}

fn cmd_bench(rest: &[String]) -> ExitCode {
    match rest.split_first() {
        None => {
            eprintln!("usage: ocelotc bench <driver> [options]   (--list for drivers)");
            ExitCode::from(2)
        }
        Some((flag, _)) if flag == "--list" => {
            println!("available drivers (ocelotc bench <driver> [options]):");
            print!("{}", ocelot_bench::cli::list_drivers());
            ExitCode::SUCCESS
        }
        Some((driver, flags)) => ocelot_bench::cli::run_driver(driver, flags.iter().cloned()),
    }
}

fn cmd_serve(rest: &[String]) -> ExitCode {
    let mut config = ocelot_serve::ServeConfig::default();
    let mut self_test = false;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut metrics = false;
    let mut it = rest.iter();
    while let Some(o) = it.next() {
        match o.as_str() {
            "--addr" => match it.next() {
                Some(a) => config.addr = a.clone(),
                None => return usage_err("--addr needs host:port"),
            },
            "--jobs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => config.jobs = v,
                _ => return usage_err("--jobs needs a number >= 1"),
            },
            "--max-programs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => config.max_programs = v,
                _ => return usage_err("--max-programs needs a number >= 1"),
            },
            "--max-inflight" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v >= 1 => config.max_inflight = v,
                _ => return usage_err("--max-inflight needs a number >= 1"),
            },
            "--self-test" => self_test = true,
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(std::path::PathBuf::from(p)),
                None => return usage_err("--trace-out needs a file path"),
            },
            "--metrics" => metrics = true,
            other => return usage_err(&format!("unknown option `{other}`")),
        }
    }
    telemetry_start(trace_out.as_deref(), metrics);
    if self_test {
        return match ocelot_serve::self_test() {
            Ok(report) => {
                print!("{report}");
                exit_ok(telemetry_finish(trace_out.as_deref(), metrics))
            }
            Err(e) => {
                eprintln!("error: serve self-test failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match ocelot_serve::serve(config.clone()) {
        Ok(handle) => {
            eprintln!(
                "ocelot serve: listening on {} ({} worker(s), {} program slot(s)); \
                 send {{\"op\": \"shutdown\"}} to stop",
                handle.addr, config.jobs, config.max_programs
            );
            handle.wait();
            eprintln!("ocelot serve: stopped");
            exit_ok(telemetry_finish(trace_out.as_deref(), metrics))
        }
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", config.addr);
            ExitCode::FAILURE
        }
    }
}

/// Enables the telemetry pillars a command's flags request.
fn telemetry_start(trace_out: Option<&std::path::Path>, metrics: bool) {
    ocelot_telemetry::set_tracing(trace_out.is_some());
    ocelot_telemetry::set_metrics(metrics);
}

/// Emits the telemetry outputs the flags requested — the sorted counter
/// snapshot to stdout, the Chrome trace to `trace_out` — and reports
/// whether everything landed.
fn telemetry_finish(trace_out: Option<&std::path::Path>, metrics: bool) -> bool {
    let emitted = ocelot_telemetry::emit(trace_out, metrics);
    if let Err(e) = &emitted {
        eprintln!("error: {e}");
    }
    emitted.is_ok()
}

fn cmd_scenario(rest: &[String]) -> ExitCode {
    const USAGE: &str =
        "usage: ocelotc scenario <list | describe <name[@seed]> | run <name[@seed]> [options]>";
    match rest.split_first() {
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
        Some((action, args)) => match action.as_str() {
            "list" => {
                println!("registered scenarios (ocelotc scenario describe <name>):");
                for sc in ocelot::scenario::all() {
                    println!(
                        "  {:16} {} (suggested app: {})",
                        sc.name, sc.about, sc.suggested_app
                    );
                }
                ExitCode::SUCCESS
            }
            "describe" => {
                let Some(spec) = args.first() else {
                    return usage_err("describe needs a scenario name");
                };
                let sc = match ocelot::scenario::parse(spec) {
                    Ok(sc) => sc,
                    Err(e) => return usage_err(&e),
                };
                println!("{} — {}", sc.name, sc.about);
                println!("  seed:          {}", sc.seed);
                println!("  suggested app: {}", sc.suggested_app);
                println!("  default runs:  {}", sc.default_runs);
                println!("  supply:        {}", sc.supply.describe());
                println!("  channels (sampled at 0 ms / 500 ms / 2000 ms):");
                let env = sc.environment();
                for ch in env.channels() {
                    println!(
                        "    {:10} {:6} {:6} {:6}",
                        ch,
                        env.sample(ch, 0),
                        env.sample(ch, 500_000),
                        env.sample(ch, 2_000_000),
                    );
                }
                ExitCode::SUCCESS
            }
            "run" => cmd_scenario_run(args),
            other => {
                eprintln!("error: unknown scenario action `{other}`\n{USAGE}");
                ExitCode::from(2)
            }
        },
    }
}

fn cmd_scenario_run(args: &[String]) -> ExitCode {
    let Some((spec, opts)) = args.split_first() else {
        return usage_err("run needs a scenario name");
    };
    let mut sc = match ocelot::scenario::parse(spec) {
        Ok(sc) => sc,
        Err(e) => return usage_err(&e),
    };
    let mut app: Option<String> = None;
    let mut runs: Option<u64> = None;
    let mut jit = false;
    let mut backend = ExecBackend::Interp;
    let mut it = opts.iter();
    while let Some(o) = it.next() {
        match o.as_str() {
            "--app" => match it.next() {
                Some(a) => app = Some(a.clone()),
                None => return usage_err("--app needs an app name"),
            },
            "--jit" => jit = true,
            "--backend" => match it.next().map(|v| ExecBackend::parse(v)) {
                Some(Some(b)) => backend = b,
                _ => return usage_err("--backend needs `interp` or `compiled`"),
            },
            "--runs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => runs = Some(v),
                None => return usage_err("--runs needs a number"),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => sc = sc.reseeded(v),
                None => return usage_err("--seed needs a number"),
            },
            other => return usage_err(&format!("unknown option `{other}`")),
        }
    }
    let app_name = app.unwrap_or_else(|| sc.suggested_app.to_string());
    let Some(bench) = ocelot::apps::by_name(&app_name) else {
        let names: Vec<&str> = ocelot::apps::all_with_extensions()
            .iter()
            .map(|b| b.name)
            .collect();
        return usage_err(&format!(
            "unknown app `{app_name}` (known: {})",
            names.join(", ")
        ));
    };
    let model = if jit {
        ExecModel::Jit
    } else {
        ExecModel::Ocelot
    };
    let built = match build(bench.annotated(), model) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut machine = Machine::new(
        &built.program,
        &built.regions,
        built.policies.clone(),
        sc.environment(),
        CostModel::default(),
        sc.supply(),
    )
    .with_backend(backend);
    let runs = runs.unwrap_or(sc.default_runs);
    eprintln!(
        "scenario `{}` (seed {}), app `{}`, model {}: {}",
        sc.name,
        sc.seed,
        bench.name,
        model.name(),
        sc.supply.describe()
    );
    let hint = format!(
        "under `{}` (supply too weak — see `ocelotc progress`)",
        sc.name
    );
    if let Err(code) = run_and_report(&mut machine, runs, &hint) {
        return code;
    }
    violations_exit(machine.stats())
}

/// Runs `machine` `runs` times, then prints every committed output to
/// stdout and the run summary to stderr. A run that hits the step limit
/// or livelocks ends it with the failure exit code; a livelock's
/// message ends with `livelock_hint`.
fn run_and_report(
    machine: &mut Machine<'_>,
    runs: u64,
    livelock_hint: &str,
) -> Result<(), ExitCode> {
    for _ in 0..runs {
        match machine.run_once(10_000_000) {
            RunOutcome::StepLimit => {
                eprintln!("error: step limit exceeded");
                return Err(ExitCode::FAILURE);
            }
            RunOutcome::Livelock { region } => {
                eprintln!("error: region r{} livelocked {livelock_hint}", region.0);
                return Err(ExitCode::FAILURE);
            }
            RunOutcome::Completed { .. } => {}
        }
    }
    for o in &machine.take_trace() {
        if let ocelot::runtime::obs::Obs::Output {
            channel, values, ..
        } = o
        {
            println!("out({channel}) {values:?}");
        }
    }
    let s = machine.stats();
    eprintln!(
        "{} run(s): {} reboot(s), {} region re-execution(s), {} violation(s); \
         on {:.2} ms, charging {:.2} ms",
        s.runs_completed,
        s.reboots,
        s.region_reexecs,
        s.violations,
        s.on_time_us as f64 / 1000.0,
        s.off_time_us as f64 / 1000.0,
    );
    Ok(())
}

/// The exit code of a finished run: failure when it saw a violation.
fn violations_exit(s: &ocelot::runtime::Stats) -> ExitCode {
    if s.violations > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn cmd_compile(program: Program) -> ExitCode {
    match ocelot_transform(program) {
        Ok(c) => {
            eprintln!(
                "inferred {} region(s) for {} policy(ies); checker: {}",
                c.policy_map.len(),
                c.policies.len(),
                if c.check.passes() { "ok" } else { "FAILED" }
            );
            for info in &c.regions {
                eprintln!(
                    "  region r{} in `{}`: ω = {:?} ({} word(s))",
                    info.id.0,
                    c.program.func(info.func).name,
                    info.effects.omega(),
                    info.omega_words
                );
            }
            println!("{}", ocelot::ir::print::program_to_string(&c.program));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_check(program: Program) -> ExitCode {
    match ocelot_check(&program) {
        Ok(report) if report.passes() => {
            for (p, r) in &report.enforced_by {
                println!("ok: policy {} enforced by region r{}", p.0, r.0);
            }
            if report.enforced_by.is_empty() {
                println!("ok: no non-vacuous policies to enforce");
            }
            ExitCode::SUCCESS
        }
        Ok(report) => {
            for v in &report.violations {
                eprintln!("violation: {v}");
                for m in &v.missing {
                    eprintln!("  uncovered operation at {m}");
                }
            }
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn cmd_policies(program: Program) -> ExitCode {
    match ocelot::ir::validate(&program) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    }
    let taint = ocelot::analysis::taint::TaintAnalysis::run(&program);
    let policies = ocelot::core::build_policies(&program, &taint);
    for pol in policies.iter() {
        println!(
            "policy {} ({:?}){}",
            pol.id.0,
            pol.kind,
            if pol.is_vacuous() { " — vacuous" } else { "" }
        );
        for d in &pol.decls {
            println!("  declares `{}` at {}", d.var, d.at);
        }
        for chain in &pol.inputs {
            let rendered: Vec<String> = chain.iter().map(|r| r.to_string()).collect();
            println!("  input chain: {}", rendered.join(" :: "));
        }
        for u in &pol.uses {
            println!("  use at {u}");
        }
    }
    ExitCode::SUCCESS
}

fn cmd_summaries(program: Program) -> ExitCode {
    if let Err(e) = ocelot::ir::validate(&program) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    let taint = ocelot::analysis::taint::TaintAnalysis::run(&program);
    let summaries = ocelot::analysis::summary::build_summaries(&program, &taint);
    for (f, fsum) in program.funcs.iter().zip(&summaries) {
        if fsum.local.entries.is_empty() && fsum.callers.is_empty() {
            continue;
        }
        println!("fn {}:", f.name);
        for e in &fsum.local.entries {
            for i in &e.inputs {
                match &e.target {
                    ocelot::analysis::summary::TaintTarget::Ret => {
                        println!("  local: ret ←↪ (input: {}, fromTp: {})", i.input, i.from);
                    }
                    ocelot::analysis::summary::TaintTarget::RefParam(p) => {
                        println!("  local: &{p} ←↪ (input: {}, fromTp: {})", i.input, i.from);
                    }
                }
            }
        }
        for cs in &fsum.callers {
            println!(
                "  call(caller: {}, tainted args: {:?})",
                cs.caller, cs.tainted_params
            );
            for e in &cs.entries {
                for i in &e.inputs {
                    match &e.target {
                        ocelot::analysis::summary::TaintTarget::Ret => {
                            println!("    ret ←↪ fromTp: {}", i.from);
                        }
                        ocelot::analysis::summary::TaintTarget::RefParam(p) => {
                            println!("    &{p} ←↪ fromTp: {}", i.from);
                        }
                    }
                }
            }
        }
    }
    ExitCode::SUCCESS
}

fn cmd_progress(program: Program, opts: &[String]) -> ExitCode {
    let mut capacity = 50_000.0f64;
    let mut trigger = 4_000.0f64;
    let mut jit = false;
    let mut it = opts.iter();
    while let Some(o) = it.next() {
        match o.as_str() {
            "--capacity" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => capacity = v,
                None => return usage_err("--capacity needs a number (nJ)"),
            },
            "--trigger" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => trigger = v,
                None => return usage_err("--trigger needs a number (nJ)"),
            },
            "--jit" => jit = true,
            other => return usage_err(&format!("unknown option `{other}`")),
        }
    }
    if trigger >= capacity || trigger < 0.0 {
        return usage_err("--trigger must lie within --capacity");
    }
    let model = if jit {
        ExecModel::Jit
    } else {
        ExecModel::Ocelot
    };
    let built = match build(program, model) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let costs = CostModel::default();
    let report = match ProgressReport::analyze(&built.program, &built.regions, &costs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{report}");
    let cap = Capacitor::new(capacity, trigger);
    let mut all_ok = report.reserve_covers_checkpoint(&cap);
    if !all_ok {
        eprintln!(
            "RESERVE TOO SMALL: the worst-case JIT checkpoint does not fit \
             below the trigger"
        );
    }
    for (b, v) in report.check(&cap) {
        match v {
            Verdict::Feasible { headroom_nj } => {
                println!(
                    "region r{}: feasible ({:.2} µJ headroom)",
                    b.region.0,
                    headroom_nj / 1000.0
                );
            }
            Verdict::Infeasible { deficit_nj } => {
                all_ok = false;
                println!(
                    "region r{}: INFEASIBLE ({:.2} µJ short) — the program \
                     livelocks here",
                    b.region.0,
                    deficit_nj / 1000.0
                );
            }
        }
    }
    let min = report.min_capacitor(0.1);
    println!(
        "minimum buffer (10% margin): {:.2} µJ capacity, {:.2} µJ trigger",
        min.capacity_nj() / 1000.0,
        min.trigger_nj() / 1000.0
    );
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_run(program: Program, opts: &[String]) -> ExitCode {
    let mut runs = 10u64;
    let mut seed = 1u64;
    let mut continuous = false;
    let mut jit = false;
    let mut backend = ExecBackend::Interp;
    let mut tics: Option<u64> = None;
    let mut env = Environment::new();
    let mut have_sensor = false;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut metrics = false;
    let mut it = opts.iter();
    while let Some(o) = it.next() {
        match o.as_str() {
            "--continuous" => continuous = true,
            "--jit" => jit = true,
            "--backend" => match it.next().map(|v| ExecBackend::parse(v)) {
                Some(Some(b)) => backend = b,
                _ => return usage_err("--backend needs `interp` or `compiled`"),
            },
            "--tics" => match it.next().and_then(|v| v.parse().ok()) {
                Some(w) => {
                    tics = Some(w);
                    jit = true;
                }
                None => return usage_err("--tics needs a window in µs"),
            },
            "--runs" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => runs = v,
                None => return usage_err("--runs needs a number"),
            },
            "--seed" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage_err("--seed needs a number"),
            },
            "--sensor" => {
                let Some(spec) = it.next() else {
                    return usage_err("--sensor needs name=value");
                };
                let Some((name, value)) = spec.split_once('=') else {
                    return usage_err("--sensor needs name=value");
                };
                let Ok(v) = value.parse::<i64>() else {
                    return usage_err("--sensor value must be an integer");
                };
                env = env.with(name, Signal::Constant(v));
                have_sensor = true;
            }
            "--trace-out" => match it.next() {
                Some(p) => trace_out = Some(std::path::PathBuf::from(p)),
                None => return usage_err("--trace-out needs a file path"),
            },
            "--metrics" => metrics = true,
            other => return usage_err(&format!("unknown option `{other}`")),
        }
    }
    telemetry_start(trace_out.as_deref(), metrics);
    if !have_sensor {
        // Default: a gently varying signal per declared sensor.
        for (i, s) in program.sensors.iter().enumerate() {
            env = env.with(
                s,
                Signal::Noisy {
                    base: Box::new(Signal::Constant(20 + 5 * i as i64)),
                    amplitude: 3,
                    seed: seed ^ i as u64,
                },
            );
        }
    }

    let model = if jit {
        ExecModel::Jit
    } else {
        ExecModel::Ocelot
    };
    let built = match build(program, model) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let supply: Box<dyn PowerSupply> = if continuous {
        Box::new(ContinuousPower)
    } else {
        Box::new(HarvestedPower::capybara_noisy(seed).with_boot_jitter(seed ^ 7, 0.4))
    };
    let mut machine = Machine::new(
        &built.program,
        &built.regions,
        built.policies.clone(),
        env,
        CostModel::default(),
        supply,
    )
    .with_backend(backend);
    if let Some(w) = tics {
        machine = machine.with_expiry_window(w);
    }
    if let Err(code) = run_and_report(
        &mut machine,
        runs,
        "(buffer too small — see `ocelotc progress`)",
    ) {
        return code;
    }
    let s = machine.stats();
    if tics.is_some() {
        eprintln!(
            "TICS: {} expiry trip(s), {} handler restart(s), {} giveup(s)",
            s.expiry_trips, s.expiry_restarts, s.expiry_giveups
        );
    }
    if !telemetry_finish(trace_out.as_deref(), metrics) {
        return ExitCode::FAILURE;
    }
    violations_exit(s)
}

/// `ocelotc trace-check <file> [span...]`: the CI trace-smoke entry.
/// Round-trips a `--trace-out` file through the harness's strict JSON
/// reader and asserts every named span occurs in it.
/// `ocelotc lint <file>`: run the static feasibility passes and render
/// the report. Exit 0 when nothing reaches the failing severity
/// (errors, or warnings too under `--deny-warnings`), 1 when something
/// does or the source fails to compile, 2 on usage/IO problems.
fn cmd_lint(rest: &[String]) -> ExitCode {
    let Some((path, flags)) = rest.split_first() else {
        return usage_err("lint needs an input file");
    };
    let mut opts = ocelot_lint::LintOptions::default();
    let mut format_json = false;
    let mut deny_warnings = false;
    let mut it = flags.iter();
    while let Some(o) = it.next() {
        match o.as_str() {
            "--window-us" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => opts.window_us = Some(v),
                None => return usage_err("--window-us needs a number of microseconds"),
            },
            "--capacity-nj" => match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 => opts.capacity_nj = Some(v),
                _ => return usage_err("--capacity-nj needs a positive number of nanojoules"),
            },
            "--format" => match it.next().map(String::as_str) {
                Some("text") => format_json = false,
                Some("json") => format_json = true,
                _ => return usage_err("--format needs `text` or `json`"),
            },
            "--deny-warnings" => deny_warnings = true,
            other => return usage_err(&format!("unknown option `{other}`")),
        }
    }
    let src = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match ocelot_lint::lint_source(&src, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if format_json {
        print!("{}", ocelot_lint::json::render_json(&report));
    } else {
        print!("{}", report.render_text(path, Some(&src)));
    }
    let failing = report.error_count() > 0 || (deny_warnings && report.warning_count() > 0);
    exit_ok(!failing)
}

fn cmd_trace_check(rest: &[String]) -> ExitCode {
    let Some((path, expected)) = rest.split_first() else {
        return usage_err("trace-check needs a trace file path");
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let doc = match ocelot_telemetry::json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {path} is not strict JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names = match ocelot_telemetry::chrome::span_names(&doc) {
        Ok(n) => n,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "{path}: {} distinct span name(s): {}",
        names.len(),
        names.join(" ")
    );
    let missing: Vec<&str> = expected
        .iter()
        .map(String::as_str)
        .filter(|want| !names.iter().any(|n| n == want))
        .collect();
    if missing.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {path} lacks expected span(s): {}",
            missing.join(", ")
        );
        ExitCode::FAILURE
    }
}

fn exit_ok(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage_err(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(2)
}
