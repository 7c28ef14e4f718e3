(** Length-prefixed JSON framing over pipes and sockets.

    A frame is [%010d\n] (payload byte count) followed by exactly that
    many bytes of {!Obs.Json}-rendered payload. The explicit length lets
    a reader distinguish a peer that died mid-write (truncated frame →
    classified as a crash) from one that sent a complete message — EOF
    alone cannot tell the two apart.

    Readers decode incrementally through a {!reader}: the worker pool
    ({!Pool}) peels a child's partial frames and its final frame off the
    pipe as they arrive, the serve daemon does the same on its client
    connections, and one-shot clients use {!read_frame}.

    All reads and writes in this module retry on [EINTR], so signal
    delivery (SIGCHLD, SIGTERM during drain) can never tear a frame. *)

val ignore_sigpipe : unit -> unit
(** Set [SIGPIPE] to ignore, process-wide: a peer that disconnects
    mid-write then surfaces as an [EPIPE] error from [write] instead of
    killing the process. Call once at the top of any long-lived loop
    that writes to pipes or sockets. *)

val write_all : Unix.file_descr -> Bytes.t -> unit
(** Write the whole buffer, looping over partial and interrupted
    writes. Raises the underlying [Unix.Unix_error] on real I/O failure
    (e.g. [EPIPE] once {!ignore_sigpipe} is in effect). *)

val frame_string : Obs.Json.t -> string
(** The on-wire bytes of one frame, for callers that batch writes. *)

val write_frame : Unix.file_descr -> Obs.Json.t -> unit
(** Render and write one frame via {!write_all}. *)

(** {1 Incremental decoding} *)

type reader
(** Buffers a byte stream and peels complete frames off the front. *)

val reader : unit -> reader

val feed : reader -> Bytes.t -> int -> unit
(** [feed r bytes len] appends the first [len] bytes just read from the
    peer. *)

val next_frame : reader -> (Obs.Json.t, string) result option
(** The next complete frame, if the buffer holds one. [None] means more
    bytes are needed; [Some (Error _)] means the stream is torn and the
    connection should be dropped (decoding cannot resync). *)

type read_result = Frame of Obs.Json.t | Eof | Malformed of string

val read_frame : Unix.file_descr -> read_result
(** Blocking read of one frame, for one-shot request/reply clients.
    [Eof] only on a clean frame boundary; EOF mid-frame is
    [Malformed]. *)
