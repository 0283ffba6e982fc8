(** The archival store (paper Figure 1): a stream-based sink for backups,
    e.g. staged locally and opportunistically migrated to a remote server.
    Like the untrusted store, its contents are attacker-controlled — the
    backup store must validate everything it reads back.

    Backups are named streams written once and read back whole. *)

type t = {
  put : name:string -> string -> unit;
  get : name:string -> string option;
  list : unit -> string list; (* sorted *)
  delete : name:string -> unit;
}

let put t = t.put
let get t = t.get
let list t = t.list ()
let delete t = t.delete

(** Attacker-visible in-memory archive. [corrupt] models offline tampering
    with a stored backup. *)
module Mem = struct
  type handle = (string, string) Hashtbl.t

  let corrupt (h : handle) ~name ~pos ~mask =
    match Hashtbl.find_opt h name with
    | None -> ()
    | Some s when pos < String.length s ->
        let b = Bytes.of_string s in
        Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor mask));
        Hashtbl.replace h name (Bytes.to_string b)
    | Some _ -> ()
end

let open_mem () : Mem.handle * t =
  let h : Mem.handle = Hashtbl.create 16 in
  ( h,
    {
      put = (fun ~name data -> Hashtbl.replace h name data);
      get = (fun ~name -> Hashtbl.find_opt h name);
      list = (fun () -> List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) h []));
      delete = (fun ~name -> Hashtbl.remove h name);
    } )

(** Directory-backed archive: one file per backup stream. The directory
    is made by the first [put]. *)
let open_dir (dir : string) : t =
  let path name =
    if String.exists (fun c -> c = '/' || c = '\000') name then invalid_arg "Archival_store: bad name";
    Filename.concat dir name
  in
  {
    put =
      (fun ~name data ->
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o700;
        let oc = open_out_gen [ Open_wronly; Open_creat; Open_trunc; Open_binary ] 0o600 (path name) in
        output_string oc data;
        close_out oc);
    get =
      (fun ~name ->
        let p = path name in
        if Sys.file_exists p then begin
          let ic = open_in_bin p in
          let s = really_input_string ic (in_channel_length ic) in
          close_in ic;
          Some s
        end
        else None);
    list = (fun () -> if Sys.file_exists dir then Sys.readdir dir |> Array.to_list |> List.sort String.compare else []);
    delete = (fun ~name -> try Sys.remove (path name) with Sys_error _ -> ());
  }
