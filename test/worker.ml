(* The worker process the pool tests spawn: serves
   {!Test_worker.handler} on stdin/stdout. *)
let () = Harness.Pool.serve ~handler:Test_worker.handler ()
