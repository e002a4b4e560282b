(** Small integer-vector helpers shared by the constraint engine. *)

val gcd : int -> int -> int
(** [gcd a b] is the non-negative greatest common divisor; [gcd 0 0 = 0]. *)

val gcd_array : int array -> int

val ceil_div : int -> int -> int
(** [ceil_div a b] is [ceiling (a / b)] for [b > 0], exact on negatives. *)

val floor_div : int -> int -> int
(** [floor_div a b] is [floor (a / b)] for [b > 0], exact on negatives. *)

val sub : int array -> int array -> int array

val scale : int -> int array -> int array

val combine : int -> int array -> int -> int array -> int array
(** [combine a u b v] is [a*u + b*v] componentwise. *)

val insert_zeros : int array -> pos:int -> count:int -> int array
(** Insert [count] zero entries starting at index [pos]. *)

val remove : int array -> pos:int -> count:int -> int array
(** Remove [count] entries starting at index [pos]. *)
