(** HMAC (RFC 2104) over any hash from this library; pinned by the RFC
    2202/4231 vectors. TDB signs the anchor and commit chain with
    {!sha256} keyed from the platform secret store. *)

val compute : (module Hash.S) -> key:string -> string -> string
val sha1 : key:string -> string -> string
val sha256 : key:string -> string -> string

(** {1 Precomputed keys}

    The anchor/commit-chain MACs reuse one key for the lifetime of the
    store; preparing it once hashes the ipad/opad blocks ahead of time, so
    each {!mac} resumes the primed state instead of recompressing the key
    pads — two block compressions saved per MAC. A [key] holds only
    immutable {!Hash.S.midstate}s, so one precomputed key may be used
    from any number of threads concurrently; each {!mac} works on fresh
    private contexts. *)

type key

val precompute : (module Hash.S) -> key:string -> key

val mac : key -> string -> string
(** [mac k data] = [compute h ~key data] for the [h]/[key] given to
    {!precompute}, at roughly half the cost for short inputs. *)

(** {1 Incremental HMAC} (for streams, e.g. backups) *)

type ctx

val init : (module Hash.S) -> key:string -> ctx
val feed : ctx -> string -> unit
val get : ctx -> string
