exception Worker_failed = Harness.Pool.Worker_failed

let serve = Harness.Pool.serve
