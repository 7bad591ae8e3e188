(* Storage backends behind one record-of-closures signature.

   [memory] keeps the log and snapshot in buffers — deterministic,
   zero-I/O, what tests and benches use.  [file] puts them on disk
   under a directory, one <node>.wal / <node>.snap pair per node,
   with the snapshot written to a temp file and renamed into place so
   a crash mid-snapshot leaves the previous snapshot intact. *)

type t = {
  append_log : string -> unit;  (** append pre-framed bytes to the log *)
  log_contents : unit -> string;
  reset_log : unit -> unit;  (** truncate the log (after a snapshot) *)
  write_snapshot : string -> unit;  (** atomic replace *)
  read_snapshot : unit -> string option;
  sync : unit -> unit;  (** flush to stable storage if applicable *)
}

let memory () =
  let log = Buffer.create 256 in
  let snap = ref None in
  {
    append_log = Buffer.add_string log;
    log_contents = (fun () -> Buffer.contents log);
    reset_log = (fun () -> Buffer.clear log);
    write_snapshot = (fun s -> snap := Some s);
    read_snapshot = (fun () -> !snap);
    sync = ignore;
  }

let read_file path =
  if Sys.file_exists path then begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  end
  else None

let fsync_channel oc = Unix.fsync (Unix.descr_of_out_channel oc)

let prepare_dir dir =
  match Sys.is_directory dir with
  | true -> Ok ()
  | false -> Error (Printf.sprintf "%s is not a directory" dir)
  | exception Sys_error _ -> (
      try Ok (Unix.mkdir dir 0o755)
      with Unix.Unix_error (e, _, _) ->
        Error (Printf.sprintf "cannot create %s: %s" dir (Unix.error_message e)))

let file ~fsync ~dir ~node () =
  (match prepare_dir dir with Ok () -> () | Error e -> invalid_arg ("Backend.file: " ^ e));
  let wal_path = Filename.concat dir (node ^ ".wal") in
  let snap_path = Filename.concat dir (node ^ ".snap") in
  let with_out path flags f =
    let oc =
      open_out_gen (Open_wronly :: Open_binary :: Open_creat :: flags) 0o644 path
    in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        f oc;
        flush oc;
        if fsync then fsync_channel oc)
  in
  {
    append_log =
      (fun s -> with_out wal_path [ Open_append ] (fun oc -> output_string oc s));
    log_contents =
      (fun () -> match read_file wal_path with Some s -> s | None -> "");
    reset_log = (fun () -> with_out wal_path [ Open_trunc ] ignore);
    write_snapshot =
      (fun s ->
        let tmp = snap_path ^ ".tmp" in
        with_out tmp [ Open_trunc ] (fun oc -> output_string oc s);
        Sys.rename tmp snap_path);
    read_snapshot = (fun () -> read_file snap_path);
    sync = ignore;
  }
