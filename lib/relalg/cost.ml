type t = {
  io : float;
  cpu : float;
}

let zero = { io = 0.; cpu = 0. }

let make ~io ~cpu = { io = Float.max 0. io; cpu = Float.max 0. cpu }

let infinite = { io = Float.infinity; cpu = Float.infinity }

let is_infinite t = t.io = Float.infinity || t.cpu = Float.infinity

let add a b = { io = a.io +. b.io; cpu = a.cpu +. b.cpu }

let sub a b =
  if is_infinite a then infinite
  else { io = Float.max 0. (a.io -. b.io); cpu = Float.max 0. (a.cpu -. b.cpu) }

(* Relative slack of a limit left by [sub_limit]: far above the few
   ulps that summing costs in another order can add, far below any cost
   difference the model means. *)
let limit_slack = 1e-12

let sub_limit limit spent =
  if is_infinite limit then infinite
  else
    {
      io = Float.max 0. (limit.io -. spent.io) +. (limit_slack *. limit.io);
      cpu = Float.max 0. (limit.cpu -. spent.cpu) +. (limit_slack *. limit.cpu);
    }

let scale f t =
  if is_infinite t then infinite else { io = t.io *. f; cpu = t.cpu *. f }

let total t = t.io +. t.cpu

let compare a b = Float.compare (total a) (total b)

let ( <% ) a b = compare a b < 0

let ( <=% ) a b = compare a b <= 0

let pp ppf t =
  if is_infinite t then Format.pp_print_string ppf "inf"
  else Format.fprintf ppf "%.6fs (io %.6f, cpu %.6f)" (total t) t.io t.cpu

let to_string t = Format.asprintf "%a" pp t
