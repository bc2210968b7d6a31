type code =
  | Malformed_ir
  | Pass_raised
  | Oracle_mismatch
  | No_convergence
  | Timeout
  | Internal
  | Budget_exhausted
  | Parse_error
  | Semantic_error
  | Io_error
  | Const_branch
  | Loop_replication
  | Code_growth
  | Jump_residual
  | Certify_refuted
  | Uncertifiable_pass
  | Certifier_timeout
  | Analysis_diverged
  | Store_corrupt

type severity = Warn | Err

type t = {
  code : code;
  severity : severity;
  func : string;
  pass : string;
  message : string;
}

exception Error of t

let code_name = function
  | Malformed_ir -> "malformed-ir"
  | Pass_raised -> "pass-raised"
  | Oracle_mismatch -> "oracle-mismatch"
  | No_convergence -> "no-convergence"
  | Timeout -> "timeout"
  | Internal -> "internal"
  | Budget_exhausted -> "budget-exhausted"
  | Parse_error -> "parse-error"
  | Semantic_error -> "semantic-error"
  | Io_error -> "io-error"
  | Const_branch -> "const-branch"
  | Loop_replication -> "loop-replication"
  | Code_growth -> "code-growth"
  | Jump_residual -> "jump-residual"
  | Certify_refuted -> "certify-refuted"
  | Uncertifiable_pass -> "uncertifiable-pass"
  | Certifier_timeout -> "certifier-timeout"
  | Analysis_diverged -> "analysis-diverged"
  | Store_corrupt -> "store-corrupt"

let severity_name = function Warn -> "warning" | Err -> "error"

let make ?(severity = Err) code ~func ~pass message =
  { code; severity; func; pass; message }

let error code ~func ~pass fmt =
  Format.kasprintf
    (fun message -> raise (Error (make code ~func ~pass message)))
    fmt

let to_string d =
  let where =
    match d.func, d.pass with
    | "", "" -> ""
    | f, "" -> Printf.sprintf " %s:" f
    | "", p -> Printf.sprintf " %s:" p
    | f, p -> Printf.sprintf " %s/%s:" f p
  in
  Printf.sprintf "[%s]%s %s" (code_name d.code) where d.message

let to_json d =
  Json.Obj
    [
      ("code", Json.Str (code_name d.code));
      ("severity", Json.Str (severity_name d.severity));
      ("func", Json.Str d.func);
      ("pass", Json.Str d.pass);
      ("message", Json.Str d.message);
    ]

let has_errors ds = List.exists (fun d -> d.severity = Err) ds
